//! The correctness gate's pair-set fingerprint.
//!
//! The six algorithms emit the same set of `(i, j)` pairs in different
//! orders, so the fingerprint is order-independent: the pair count plus the
//! wrapping sum of a 64-bit mix of each pair. A sum (unlike an xor) also
//! moves when a pair is emitted twice; duplicates are counted explicitly as
//! well, so a failure can say which of the three checks broke.

/// Count, order-independent digest and duplicate count of a pair list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairSet {
    pub count: u64,
    pub digest: u64,
    pub duplicates: u64,
}

/// One SplitMix64 step from the packed pair: adjacent pairs land far apart,
/// so sums of different sets do not cancel.
fn mix(key: u64) -> u64 {
    crate::rng::SplitMix64(key).next()
}

fn pack(i: u32, j: u32) -> u64 {
    (u64::from(i) << 32) | u64::from(j)
}

impl PairSet {
    /// Adds one pair known not to repeat (the oracle's loops visit each
    /// pair once).
    pub fn push(&mut self, i: u32, j: u32) {
        self.count += 1;
        self.digest = self.digest.wrapping_add(mix(pack(i, j)));
    }

    /// Fingerprints an arbitrary pair list, counting repeated pairs.
    pub fn of(pairs: &[(u32, u32)]) -> PairSet {
        let mut set = PairSet::default();
        let mut keys: Vec<u64> = pairs.iter().map(|&(i, j)| pack(i, j)).collect();
        for &(i, j) in pairs {
            set.push(i, j);
        }
        keys.sort_unstable();
        set.duplicates = keys.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        set
    }
}

/// Parses the `i,j` lines `hdsj join --out FILE` writes.
pub fn parse_pairs(text: &str) -> Result<Vec<(u32, u32)>, String> {
    let mut pairs = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let parsed = line
            .split_once(',')
            .and_then(|(i, j)| Some((i.parse::<u32>().ok()?, j.parse::<u32>().ok()?)));
        match parsed {
            Some(pair) => pairs.push(pair),
            None => return Err(format!("line {}: not an `i,j` pair: {line:?}", n + 1)),
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_independent() {
        let pairs = vec![(0, 1), (0, 2), (7, 9), (3, 4_000_000_000)];
        let mut reversed = pairs.clone();
        reversed.reverse();
        assert_eq!(PairSet::of(&pairs), PairSet::of(&reversed));
        let mut pushed = PairSet::default();
        for &(i, j) in &reversed {
            pushed.push(i, j);
        }
        assert_eq!(pushed, PairSet::of(&pairs));
    }

    #[test]
    fn digest_is_duplicate_and_content_sensitive() {
        let base = PairSet::of(&[(0, 1), (2, 3)]);
        let dup = PairSet::of(&[(0, 1), (2, 3), (0, 1)]);
        assert_eq!(dup.duplicates, 1);
        assert_ne!(dup.digest, base.digest);
        assert_ne!(dup.count, base.count);
        // Swapped indices and a shifted pair are different sets.
        assert_ne!(PairSet::of(&[(1, 0), (2, 3)]).digest, base.digest);
        assert_ne!(PairSet::of(&[(0, 1), (2, 4)]).digest, base.digest);
        // An xor would cancel a pair emitted twice; the sum does not.
        let twice = PairSet::of(&[(5, 6), (5, 6)]);
        assert_ne!(twice.digest, 0);
        assert_eq!(twice.duplicates, 1);
        assert_eq!(PairSet::of(&[]), PairSet::default());
    }

    #[test]
    fn parses_the_out_file_format() {
        assert_eq!(parse_pairs("0,1\n12,7\n").unwrap(), vec![(0, 1), (12, 7)]);
        assert_eq!(parse_pairs("").unwrap(), vec![]);
        assert!(parse_pairs("0,1\nzebra\n").is_err());
        assert!(parse_pairs("1;2\n").is_err());
        assert!(parse_pairs("1,-2\n").is_err());
    }
}

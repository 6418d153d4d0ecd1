//! Dataset import/export: points as CSV (interoperability), result pairs
//! as CSV.

use hdsj_core::{Dataset, Error, Result};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Writes `ds` as headerless CSV, one point per line, each coordinate as
/// `{:.17e}` prints it: 18 significant digits, a lossless f64 round trip.
pub fn save_csv(ds: &Dataset, path: &Path) -> Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (_, p) in ds.iter() {
        for (k, &v) in p.iter().enumerate() {
            if k > 0 {
                out.write_all(b",")?;
            }
            write_sci17(&mut out, v)?;
        }
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(())
}

/// `5^q` for every `q` the fast path of [`sci17_digits`] uses.
const POW5: [u128; 33] = {
    let mut pow = [1u128; 33];
    let mut q = 1;
    while q < pow.len() {
        pow[q] = pow[q - 1] * 5;
        q += 1;
    }
    pow
};

/// `10^17`: the smallest 18-digit significand.
const TEN_17: u64 = 100_000_000_000_000_000;

/// Writes `v` into `out` exactly as `write!(out, "{v:.17e}")` would,
/// without the formatter when [`sci17_digits`] covers `v` (nearly every
/// coordinate the generators make; `0.0` is the common exception). Through
/// the formatter a coordinate costs ~300 ns; this way ~70.
fn write_sci17(out: &mut impl Write, v: f64) -> std::io::Result<()> {
    let Some((digits, exp10)) = sci17_digits(v) else {
        return write!(out, "{v:.17e}");
    };
    // `d.ddddddddddddddddde-N`: 18 digits, the point, `e-` and one or two
    // exponent digits.
    let mut text = [0u8; 23];
    let (hi, lo) = (
        (digits / 1_000_000_000) as u32,
        (digits % 1_000_000_000) as u32,
    );
    // `lo` padded to nine digits by a leading 1, which `hi` then covers.
    put_decimal(&mut text, 19, lo + 1_000_000_000);
    put_decimal(&mut text, 10, hi);
    text[0] = text[1];
    text[1] = b'.';
    text[19] = b'e';
    text[20] = b'-';
    let end = if exp10 <= -10 { 23 } else { 22 };
    put_decimal(&mut text, end, exp10.unsigned_abs());
    out.write_all(&text[..end])
}

/// The significand and exponent `{:.17e}` prints for `v`: `(D, E)` with
/// `10^17 <= D < 10^18` and `D · 10^(E - 17)` the value of `v` rounded
/// half to even to 18 significant digits. `Some` for a positive normal
/// `v` in `[2^-49, 1)`, `None` for anything else (zero, signs, subnormals,
/// values at or above 1, non-finite values).
///
/// `v = m · 2^e2` with a 53-bit `m`, so `v · 10^q = m · 5^q / 2^s` with
/// `s = −(q + e2)`. In that range `q` is at most 32 and `m · 5^q` fits a
/// `u128`, so `D` is the exact quotient, rounded by the remainder.
fn sci17_digits(v: f64) -> Option<(u64, i32)> {
    let bits = v.to_bits();
    // A set sign bit puts `e_bin` above 1 000.
    let e_bin = (bits >> 52) as i32 - 1023;
    if !(-49..=-1).contains(&e_bin) {
        return None;
    }
    let m = u128::from((bits & ((1 << 52) - 1)) | (1 << 52));
    // floor(log10 v) is `g` or `g + 1`, with `g = floor(e_bin · log10 2)`.
    let g = (e_bin * 78_913) >> 18;
    let scaled = |exp10: i32| {
        let q = (17 - exp10) as usize;
        let s = (52 - e_bin) as usize - q;
        let n = m * POW5[q];
        (n >> s, n & ((1 << s) - 1), 1u128 << (s - 1))
    };
    let mut exp10 = g + 1;
    let (mut int, mut rem, mut half) = scaled(exp10);
    if int < u128::from(TEN_17) {
        exp10 = g;
        (int, rem, half) = scaled(exp10);
    }
    let mut digits = int as u64;
    if rem > half || (rem == half && digits % 2 == 1) {
        digits += 1;
    }
    if digits == 10 * TEN_17 {
        digits = TEN_17;
        exp10 += 1;
    }
    Some((digits, exp10))
}

/// Reads a CSV of points. Lines starting with `#` and blank lines are
/// skipped; every remaining line must have the same number of columns.
pub fn load_csv(path: &Path) -> Result<Dataset> {
    let reader = BufReader::new(std::fs::File::open(path)?);
    let mut ds: Option<Dataset> = None;
    let mut point = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        point.clear();
        for field in trimmed.split(',') {
            let v: f64 = field.trim().parse().map_err(|e| {
                Error::InvalidInput(format!("line {}: bad number {field:?}: {e}", lineno + 1))
            })?;
            point.push(v);
        }
        if ds.is_none() {
            ds = Some(Dataset::new(point.len().max(1))?);
        }
        if let Some(ds) = ds.as_mut() {
            ds.push(&point)
                .map_err(|e| Error::InvalidInput(format!("line {}: {e}", lineno + 1)))?;
        }
    }
    ds.ok_or_else(|| Error::InvalidInput("empty csv".into()))
}

/// Bytes of result pairs formatted between two `write_all` calls.
const PAIR_PIECE: usize = 64 * 1024;

/// Writes the decimal digits of `v`, as `write!(.., "{v}")` would, into
/// `line` so that they end just before `line[end]`, and returns where they
/// start. Not the formatter: through `writeln!` it costs ~45 ns per pair,
/// a fifth of a dense join's wall time.
fn put_decimal(line: &mut [u8], end: usize, mut v: u32) -> usize {
    let mut at = end;
    loop {
        at -= 1;
        line[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return at;
        }
    }
}

/// Writes result pairs as CSV, one `i,j` line per pair, in the order given.
pub fn save_pairs(pairs: &[(u32, u32)], path: &Path) -> Result<()> {
    let mut out = std::fs::File::create(path)?;
    // Two u32s of at most ten digits, a comma and a newline, written from
    // the end so the line goes into `buf` in one copy.
    let mut line = [0u8; 22];
    let mut buf = Vec::with_capacity(PAIR_PIECE + line.len());
    let last = line.len() - 1;
    line[last] = b'\n';
    for &(i, j) in pairs {
        let comma = put_decimal(&mut line, last, j) - 1;
        line[comma] = b',';
        let start = put_decimal(&mut line, comma, i);
        buf.extend_from_slice(&line[start..]);
        if buf.len() >= PAIR_PIECE {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hdsj-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Values `m · 2^-k` whose exact decimal has 19 significant digits
    /// ending in 5: halfway between two 18-digit outputs.
    fn ties() -> Vec<f64> {
        let mut out = vec![2f64.powi(-26), 3.0 * 2f64.powi(-26)];
        for k in 20..=75 {
            for m in (1u32..4_000).step_by(2) {
                let v = f64::from(m) * 2f64.powi(-k);
                let exact = format!("{v:.40e}");
                let (digits, _) = exact.split_once('e').unwrap();
                if digits[19..].starts_with('5') && digits[20..].bytes().all(|b| b == b'0') {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Zeros of both signs, subnormals, the fast path's bounds, values at
    /// and above 1, and negatives.
    fn edge_values() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 7.0,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1.0,
            1.0 - f64::EPSILON / 2.0,
            2f64.powi(-49),
            2f64.powi(-49) - 2f64.powi(-102),
            2f64.powi(-50),
            1e-15,
            0.1,
            0.5,
            9.999_999_999_999_999e-2,
            12345.678,
            -0.25,
        ]
    }

    /// `count` finite values: every edge value and tie, then uniform draws
    /// and random bit patterns across all exponents, in both signs.
    fn writer_sample(count: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut out = edge_values();
        out.extend(ties());
        while out.len() < count {
            let v = match out.len() % 4 {
                0 | 1 => rng.gen::<f64>(),
                2 => f64::from_bits(rng.gen::<u64>()),
                _ => rng.gen::<f64>() * 10f64.powi(-rng.gen_range(0..17i32)),
            };
            if v.is_finite() {
                out.push(v);
            }
        }
        out
    }

    /// `save_csv` of `values`, eight to a line, against the formatter's
    /// `{:.17e}` of each joined by commas.
    fn assert_writer_matches_the_formatter(values: &[f64]) {
        let dims = 8;
        let whole = values.len() / dims * dims;
        let ds = Dataset::from_flat(dims, values[..whole].to_vec()).unwrap();
        let want: String = ds
            .iter()
            .map(|(_, p)| {
                let line: Vec<String> = p.iter().map(|v| format!("{v:.17e}")).collect();
                line.join(",") + "\n"
            })
            .collect();
        let path = tmp(&format!("writer-{}.csv", values.len()));
        save_csv(&ds, &path).unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for (g, w) in got.lines().zip(want.lines()) {
            assert_eq!(g, w);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn csv_writer_matches_the_formatter_byte_for_byte() {
        let values = writer_sample(200_000, 1);
        let fast = values
            .iter()
            .filter(|&&v| sci17_digits(v).is_some())
            .count();
        assert!(fast > values.len() / 3, "fast path took {fast} values");
        assert!(ties().len() > 500, "{} ties", ties().len());
        assert_writer_matches_the_formatter(&values);
    }

    #[test]
    #[ignore = "10^7 values; run with --release --ignored"]
    fn csv_writer_matches_the_formatter_on_ten_million_values() {
        assert_writer_matches_the_formatter(&writer_sample(10_000_000, 2));
    }

    #[test]
    fn fast_path_matches_the_formatter_on_ties_and_non_finite_values() {
        let mut out = Vec::new();
        for v in [2f64.powi(-26), 3.0 * 2f64.powi(-26)] {
            out.clear();
            write_sci17(&mut out, v).unwrap();
            assert!(sci17_digits(v).is_some());
            assert_eq!(out, format!("{v:.17e}").as_bytes());
        }
        assert_eq!(format!("{:.17e}", 2f64.powi(-26)), "1.49011611938476562e-8");
        assert_eq!(
            format!("{:.17e}", 3.0 * 2f64.powi(-26)),
            "4.47034835815429688e-8"
        );
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            out.clear();
            write_sci17(&mut out, v).unwrap();
            assert_eq!(out, format!("{v:.17e}").as_bytes());
        }
    }

    #[test]
    fn csv_round_trip_is_lossless() {
        let mut flat = crate::uniform(5, 200, 9).unwrap().flat().to_vec();
        flat.extend(edge_values());
        flat.extend(&ties()[..5]);
        let ds = Dataset::from_flat(5, flat).unwrap();
        let path = tmp("round.csv");
        save_csv(&ds, &path).unwrap();
        let back = load_csv(&path).unwrap();
        // Bits, not `==`: `-0.0 == 0.0` would hide a lost sign.
        let bits = |ds: &Dataset| ds.flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ds), bits(&back));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_skips_comments_and_blank_lines() {
        let path = tmp("comments.csv");
        std::fs::write(&path, "# header\n\n0.25,0.5\n 0.75 , 0.125 \n").unwrap();
        let ds = load_csv(&path).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.point(1), &[0.75, 0.125]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_ragged_rows_and_garbage() {
        let ragged = tmp("ragged.csv");
        std::fs::write(&ragged, "0.1,0.2\n0.3\n").unwrap();
        assert!(load_csv(&ragged).is_err());
        let garbage = tmp("garbage.csv");
        std::fs::write(&garbage, "0.1,zebra\n").unwrap();
        assert!(load_csv(&garbage).is_err());
        let empty = tmp("empty.csv");
        std::fs::write(&empty, "# nothing\n").unwrap();
        assert!(load_csv(&empty).is_err());
        for p in [ragged, garbage, empty] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn decimal_digits_match_the_formatter() {
        let mut values = vec![0u32, 9, u32::MAX];
        for k in 1..10 {
            values.extend([10u32.pow(k) - 1, 10u32.pow(k)]);
        }
        for v in values {
            let mut line = [b'x'; 12];
            let start = put_decimal(&mut line, 11, v);
            assert_eq!(&line[start..11], format!("{v}").as_bytes());
            assert!(line[..start].iter().all(|&b| b == b'x') && line[11] == b'x');
        }
    }

    #[test]
    fn pairs_file_is_one_line_per_pair_across_write_pieces() {
        // Enough pairs for several 64 KiB pieces, ids of every digit count.
        let pairs: Vec<(u32, u32)> = (0..30_000u32)
            .map(|k| (k.wrapping_mul(2_654_435_761) >> (k % 32), k))
            .collect();
        let want: String = pairs.iter().map(|(i, j)| format!("{i},{j}\n")).collect();
        assert!(want.len() > 3 * PAIR_PIECE);
        let path = tmp("pairs.csv");
        save_pairs(&pairs, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        save_pairs(&[], &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        std::fs::remove_file(&path).ok();
    }
}

//! Dataset import/export: CSV (interoperability) and a compact binary
//! format (fast reload of generated workloads); result pairs as CSV.

use hdsj_core::{Dataset, Error, Result};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes of the binary format (`HDSJ` + version 1).
const MAGIC: [u8; 5] = [b'H', b'D', b'S', b'J', 1];

/// Writes `ds` as headerless CSV, one point per line.
pub fn save_csv(ds: &Dataset, path: &Path) -> Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for (_, p) in ds.iter() {
        line.clear();
        for (k, v) in p.iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            // 17 significant digits: lossless f64 round trip.
            line.push_str(&format!("{v:.17e}"));
        }
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()?;
    Ok(())
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

/// Writes `ds` in the binary format: magic, dims (u32 LE), count (u64 LE),
/// then row-major little-endian `f64`s.
pub fn save_binary(ds: &Dataset, path: &Path) -> Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    out.write_all(&MAGIC)?;
    out.write_all(&(ds.dims() as u32).to_le_bytes())?;
    out.write_all(&(ds.len() as u64).to_le_bytes())?;
    for &v in ds.flat() {
        out.write_all(&v.to_le_bytes())?;
    }
    out.flush()?;
    Ok(())
}

/// Reads the binary format written by [`save_binary`].
pub fn load_binary(path: &Path) -> Result<Dataset> {
    let mut reader = BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 5];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(Error::InvalidInput("not an hdsj binary dataset".into()));
    }
    let mut buf4 = [0u8; 4];
    reader.read_exact(&mut buf4)?;
    let dims = u32::from_le_bytes(buf4) as usize;
    let mut buf8 = [0u8; 8];
    reader.read_exact(&mut buf8)?;
    let count = u64::from_le_bytes(buf8) as usize;
    if dims == 0 || dims > 1 << 20 {
        return Err(Error::InvalidInput(format!("implausible dims {dims}")));
    }
    let total = count
        .checked_mul(dims)
        .ok_or_else(|| Error::InvalidInput("size overflow".into()))?;
    let mut flat = Vec::with_capacity(total);
    for _ in 0..total {
        reader.read_exact(&mut buf8)?;
        flat.push(f64::from_le_bytes(buf8));
    }
    // Trailing garbage means a corrupt or mismatched file.
    if reader.read(&mut buf8)? != 0 {
        return Err(Error::InvalidInput("trailing bytes after dataset".into()));
    }
    Dataset::from_flat(dims, flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hdsj-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn csv_round_trip_is_lossless() {
        let ds = crate::uniform(5, 200, 9).unwrap();
        let path = tmp("round.csv");
        save_csv(&ds, &path).unwrap();
        let back = load_csv(&path).unwrap();
        assert_eq!(ds, back);
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

    #[test]
    fn binary_round_trip() {
        let ds = crate::gaussian_clusters(7, 150, crate::ClusterSpec::default(), 4).unwrap();
        let path = tmp("round.bin");
        save_binary(&ds, &path).unwrap();
        let back = load_binary(&path).unwrap();
        assert_eq!(ds, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_corruption() {
        let ds = crate::uniform(2, 10, 1).unwrap();
        let path = tmp("corrupt.bin");
        save_binary(&ds, &path).unwrap();
        // Truncate mid-data.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load_binary(&path).is_err());
        // Bad magic.
        std::fs::write(&path, b"NOPE!rest").unwrap();
        assert!(load_binary(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

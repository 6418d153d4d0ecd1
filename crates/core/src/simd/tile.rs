//! Cache probing and tile-size selection for blocked refinement.
//!
//! The blocked refinement loops hold one probe row plus a candidate tile
//! in cache while they stream dimension columns. Tile sizes therefore
//! come from the host's cache hierarchy: candidate tiles are sized for a
//! fraction of L1d (the tile's columns are revisited once per probe
//! dimension group), probe blocks for a fraction of L2 (each probe row is
//! revisited once per tile).
//!
//! Sizes are read once from sysfs (`/sys/devices/system/cpu/cpu0/cache`)
//! and fall back to conservative defaults (32 KiB L1d / 256 KiB L2) when
//! the files are absent (non-Linux, sandboxes). The probed values affect
//! only *loop chunking* — which candidates get grouped into a tile —
//! never the per-pair arithmetic, so results are byte-identical across
//! hosts with different caches; and they deliberately do **not** depend
//! on the SIMD dispatch level, so `HDSJ_SIMD` sweeps see identical tile
//! boundaries too.

use std::sync::OnceLock;

/// Effective cache budget per level, in bytes.
#[derive(Clone, Copy, Debug)]
pub struct CacheInfo {
    /// L1 data cache size in bytes.
    pub l1d: usize,
    /// Unified L2 size in bytes.
    pub l2: usize,
}

/// Conservative defaults when sysfs is unavailable.
const DEFAULT: CacheInfo = CacheInfo {
    l1d: 32 * 1024,
    l2: 256 * 1024,
};

/// The probed cache sizes for this host (probed once, then cached).
pub fn cache_info() -> CacheInfo {
    static INFO: OnceLock<CacheInfo> = OnceLock::new();
    *INFO.get_or_init(probe)
}

fn probe() -> CacheInfo {
    let mut info = DEFAULT;
    // cpu0's cache levels; index0..index4 covers L1d/L1i/L2/L3 layouts.
    for index in 0..5 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(ty), Some(size)) = (
            read_trim(&format!("{dir}/level")),
            read_trim(&format!("{dir}/type")),
            read_trim(&format!("{dir}/size")).and_then(|s| parse_size(&s)),
        ) else {
            continue;
        };
        match (level.as_str(), ty.as_str()) {
            ("1", "Data") => info.l1d = size,
            ("2", "Unified") | ("2", "Data") => info.l2 = size,
            _ => {}
        }
    }
    info
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Parses sysfs cache sizes: `48K`, `2048K`, `1M`, or a bare byte count.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, mul) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mul)
}

/// Candidate-tile width (lanes) for `dims`-dimensional points: half of
/// L1d for the tile's coordinate columns, rounded down to a multiple of
/// [`crate::soa::LANE_PAD`] and clamped to a sane range. The floor of 16
/// is a lane count measured with the gather policy, not a multiple of the
/// padding granule: at d ≥ 192 on a 48 KiB L1 it *is* the tile, and a
/// floor that grew with the granule would leave the tile's half of L1.
pub fn soa_tile_width(dims: usize) -> usize {
    let budget = cache_info().l1d / 2;
    let lanes = budget / (std::mem::size_of::<f64>() * dims.max(1));
    let pad = crate::soa::LANE_PAD;
    (lanes / pad * pad).clamp(16, 4096)
}

/// Probe-block row count for the outer loop of blocked brute force: half
/// of L2 for the probe rows revisited across every tile.
pub fn probe_block_rows(dims: usize) -> usize {
    let budget = cache_info().l2 / 2;
    (budget / (std::mem::size_of::<f64>() * dims.max(1))).clamp(32, 8192)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_size_handles_sysfs_forms() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("1M"), Some(1024 * 1024));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("xK"), None);
    }

    #[test]
    fn tile_sizes_are_padded_and_clamped() {
        for dims in [1, 3, 16, 64, 256, 4096] {
            let w = soa_tile_width(dims);
            assert_eq!(w % crate::soa::LANE_PAD, 0, "dims={dims}");
            assert!((16..=4096).contains(&w), "dims={dims}: {w}");
            assert!(probe_block_rows(dims) >= 32, "dims={dims}");
        }
    }

    #[test]
    fn probe_is_stable() {
        let a = cache_info();
        let b = cache_info();
        assert_eq!((a.l1d, a.l2), (b.l1d, b.l2));
        assert!(a.l1d >= 4 * 1024);
    }
}

//! Runtime-dispatched SIMD distance kernels.
//!
//! Every public function here is a thin dispatcher: a one-time capability
//! probe picks the best kernel tier the host supports (AVX-512 → AVX2 →
//! SSE2 → scalar on x86-64, NEON → scalar on aarch64), and all subsequent
//! calls jump straight to that tier. The probe honours the `HDSJ_SIMD`
//! environment variable (`off`/`scalar`, `sse2`, `avx2`, `avx512`, `neon`
//! — clamped to what the host actually supports), and tests/benches can
//! override it programmatically with [`set_level`].
//!
//! ## The exactness contract
//!
//! Dispatch would be useless if the tiers disagreed. They cannot: every
//! tier computes the *bit-identical* sum of the 4-lane scalar kernels in
//! [`crate::kernels`] — dimensions `≡ k (mod 4)` feed lane accumulator
//! `k`, the per-pair result is the canonical fold
//! `(acc0 + acc1) + (acc2 + acc3)` plus a separately chained scalar tail,
//! all in plain IEEE sub/mul/add (never FMA). Early exits only ever
//! compare a *partial* monotone fold against the budget, so `within`
//! decisions equal the full-sum decision at every tier. Distances are
//! bit-identical; decisions are exactly identical; join results therefore
//! do not depend on the dispatch level. `Lp` for general `p` is
//! `powf`-bound and stays on the scalar kernels at every tier.
//!
//! The `*_within_block` entry points run the same contract over a
//! [`SoABlock`] candidate tile, vectorizing across candidates instead of
//! dimensions (see [`portable`], `x86`, `neon`).

pub mod portable;
pub mod tile;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use crate::kernels;
use crate::soa::SoABlock;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel tier. Discriminants order tiers by capability so clamping a
/// request to the host is a numeric comparison; `0` is reserved in the
/// private `DISPATCH` atomic for "not probed yet".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The 4-lane scalar kernels in [`crate::kernels`] — always available,
    /// and the oracle every other tier is differentially tested against.
    Scalar = 1,
    /// Two f64 lanes per vector (x86-64 baseline; no runtime probe needed).
    Sse2 = 2,
    /// Four f64 lanes per vector (runtime-probed).
    Avx2 = 3,
    /// Eight candidates per vector in the block kernels (runtime-probed
    /// `avx512f`); pair kernels are the AVX2 ones, whose canonical fold
    /// has only four accumulators to fill.
    Avx512 = 4,
    /// Two f64 lanes per vector (aarch64 baseline).
    Neon = 5,
}

impl Level {
    /// Stable lowercase name, matching the `HDSJ_SIMD` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Sse2 => "sse2",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
            Level::Neon => "neon",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            2 => Level::Sse2,
            3 => Level::Avx2,
            4 => Level::Avx512,
            5 => Level::Neon,
            _ => Level::Scalar,
        }
    }
}

/// The resolved dispatch level. `0` = not probed yet; otherwise a
/// [`Level`] discriminant. Probing is idempotent (every racer computes
/// the same value for a given environment), so relaxed ordering suffices.
static DISPATCH: AtomicU8 = AtomicU8::new(0);

/// The active dispatch level, probing the host (and `HDSJ_SIMD`) on the
/// first call.
pub fn level() -> Level {
    // ORDERING: Relaxed is sufficient — DISPATCH is a standalone gate with
    // no dependent data; racing initializers all store the same value.
    let v = DISPATCH.load(Ordering::Relaxed);
    if v != 0 {
        return Level::from_u8(v);
    }
    let resolved = clamp(requested());
    // ORDERING: Relaxed — idempotent publish; every racer derived the
    // identical value from the same environment and host capabilities.
    DISPATCH.store(resolved as u8, Ordering::Relaxed);
    resolved
}

/// Forces the dispatch level (clamped to what the host supports) and
/// returns the effective level. Test and bench sweeps use this to run the
/// same workload at every tier.
pub fn set_level(requested: Level) -> Level {
    let effective = clamp(requested);
    // ORDERING: Relaxed — standalone gate, no dependent data to publish.
    DISPATCH.store(effective as u8, Ordering::Relaxed);
    effective
}

/// Every tier this host can run, in ascending capability order (always
/// starts with [`Level::Scalar`]).
pub fn supported() -> Vec<Level> {
    let mut tiers = vec![Level::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        tiers.push(Level::Sse2);
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(Level::Avx2);
        }
        if x86::avx512_available() {
            tiers.push(Level::Avx512);
        }
    }
    #[cfg(target_arch = "aarch64")]
    tiers.push(Level::Neon);
    tiers
}

/// The best tier this host supports.
pub fn best() -> Level {
    supported().last().copied().unwrap_or(Level::Scalar)
}

/// The level the environment asks for: `HDSJ_SIMD` if set (unknown values
/// fall back to the host's best), else the host's best.
fn requested() -> Level {
    std::env::var("HDSJ_SIMD")
        .ok()
        .and_then(|v| parse_level(&v))
        .unwrap_or_else(best)
}

/// Parses an `HDSJ_SIMD` spelling: a [`Level::name`], or `off`/`0` for
/// the scalar kernels.
fn parse_level(v: &str) -> Option<Level> {
    match v.trim().to_ascii_lowercase().as_str() {
        "off" | "scalar" | "0" => Some(Level::Scalar),
        "sse2" => Some(Level::Sse2),
        "avx2" => Some(Level::Avx2),
        "avx512" => Some(Level::Avx512),
        "neon" => Some(Level::Neon),
        _ => None,
    }
}

/// Clamps a requested tier to the host: the most capable supported tier
/// that does not exceed the request (requesting `avx512` on an AVX2 host
/// yields `avx2`; requesting `neon` on x86 yields the x86 best).
fn clamp(requested: Level) -> Level {
    supported()
        .into_iter()
        .filter(|l| *l <= requested)
        .max()
        .unwrap_or(Level::Scalar)
}

// ---------------------------------------------------------------------
// Pair dispatchers. Each match carries a `_` arm to the scalar kernels:
// `clamp` guarantees foreign-arch tiers are never stored, so the arm only
// ever runs for `Level::Scalar` (and keeps each arch's match exhaustive).
// ---------------------------------------------------------------------

/// Manhattan distance `Σ |aᵢ − bᵢ|` at the active dispatch level.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_l1_distance(a, b),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx512 => x86::avx2_l1_distance(a, b),
        #[cfg(target_arch = "aarch64")]
        Level::Neon => neon::l1_distance(a, b),
        _ => kernels::l1_distance(a, b),
    }
}

/// Euclidean distance `√Σ (aᵢ − bᵢ)²` at the active dispatch level.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_l2_distance(a, b),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx512 => x86::avx2_l2_distance(a, b),
        #[cfg(target_arch = "aarch64")]
        Level::Neon => neon::l2_distance(a, b),
        _ => kernels::l2_distance(a, b),
    }
}

/// Chebyshev distance `max |aᵢ − bᵢ|` at the active dispatch level.
pub fn linf_distance(a: &[f64], b: &[f64]) -> f64 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_linf_distance(a, b),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx512 => x86::avx2_linf_distance(a, b),
        #[cfg(target_arch = "aarch64")]
        Level::Neon => neon::linf_distance(a, b),
        _ => kernels::linf_distance(a, b),
    }
}

/// Minkowski distance for general `p`. `powf` has no vector form, so this
/// is the scalar kernel at every tier.
pub fn lp_distance(a: &[f64], b: &[f64], p: f64) -> f64 {
    kernels::lp_distance(a, b, p)
}

/// `Σ |aᵢ − bᵢ| ≤ eps` at the active dispatch level.
pub fn l1_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_l1_within(a, b, eps),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx512 => x86::avx2_l1_within(a, b, eps),
        #[cfg(target_arch = "aarch64")]
        Level::Neon => neon::l1_within(a, b, eps),
        _ => kernels::l1_within(a, b, eps),
    }
}

/// `Σ (aᵢ − bᵢ)² ≤ eps²` at the active dispatch level (no root taken).
pub fn l2_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_l2_within(a, b, eps),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx512 => x86::avx2_l2_within(a, b, eps),
        #[cfg(target_arch = "aarch64")]
        Level::Neon => neon::l2_within(a, b, eps),
        _ => kernels::l2_within(a, b, eps),
    }
}

/// `max |aᵢ − bᵢ| ≤ eps` at the active dispatch level.
pub fn linf_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_linf_within(a, b, eps),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx512 => x86::avx2_linf_within(a, b, eps),
        #[cfg(target_arch = "aarch64")]
        Level::Neon => neon::linf_within(a, b, eps),
        _ => kernels::linf_within(a, b, eps),
    }
}

/// `Σ |aᵢ − bᵢ|^p ≤ eps^p` — scalar at every tier (see [`lp_distance`]).
pub fn lp_within(a: &[f64], b: &[f64], eps: f64, p: f64) -> bool {
    kernels::lp_within(a, b, eps, p)
}

// ---------------------------------------------------------------------
// Block dispatchers: one probe row against a SoA candidate tile.
// ---------------------------------------------------------------------

/// L1 block filter: pushes ids of lanes in `lanes` whose L1 distance to
/// `probe` is `≤ eps`, in lane order.
pub fn l1_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_l1_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => x86::avx2_l1_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => x86::avx512_l1_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "aarch64")]
        Level::Neon => neon::l1_within_block(probe, block, lanes, eps, out),
        _ => portable::l1_within_block(probe, block, lanes, eps, out),
    }
}

/// L2 block filter (squared domain; see [`l1_within_block`] for shape).
pub fn l2_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_l2_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => x86::avx2_l2_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => x86::avx512_l2_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "aarch64")]
        Level::Neon => neon::l2_within_block(probe, block, lanes, eps, out),
        _ => portable::l2_within_block(probe, block, lanes, eps, out),
    }
}

/// L∞ block filter (see [`l1_within_block`] for shape).
pub fn linf_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_linf_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => x86::avx2_linf_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => x86::avx512_linf_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "aarch64")]
        Level::Neon => neon::linf_within_block(probe, block, lanes, eps, out),
        _ => portable::linf_within_block(probe, block, lanes, eps, out),
    }
}

/// Lp block filter — the portable strided path at every tier.
pub fn lp_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    p: f64,
    out: &mut Vec<u32>,
) {
    portable::lp_within_block(probe, block, lanes, eps, p, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    const ALL_LEVELS: [Level; 5] = [
        Level::Scalar,
        Level::Sse2,
        Level::Avx2,
        Level::Avx512,
        Level::Neon,
    ];

    fn ds(n: usize, dims: usize) -> Dataset {
        let flat: Vec<f64> = (0..n * dims)
            .map(|i| ((i as f64 * 0.43).sin() * 0.5 + 0.5).abs())
            .collect();
        Dataset::from_flat(dims, flat).unwrap()
    }

    #[test]
    fn clamp_never_exceeds_the_request_or_the_host() {
        for req in ALL_LEVELS {
            let eff = clamp(req);
            assert!(eff <= req, "{req:?} -> {eff:?}");
            assert!(supported().contains(&eff), "{req:?} -> {eff:?}");
        }
        assert_eq!(clamp(Level::Scalar), Level::Scalar);
    }

    #[test]
    fn supported_starts_with_scalar_and_is_ascending() {
        let tiers = supported();
        assert_eq!(tiers[0], Level::Scalar);
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(best(), *tiers.last().unwrap());
    }

    // The full differential suite lives in tests/simd_parity.rs; this is
    // the smoke-level check that every supported tier agrees bit-for-bit
    // through the public dispatchers. Runs the sweep in one test body
    // because set_level mutates process-global state.
    #[test]
    fn every_supported_tier_matches_the_scalar_kernels() {
        let d = ds(9, 33);
        let saved = level();
        for tier in supported() {
            assert_eq!(set_level(tier), tier);
            for i in 0..9u32 {
                for j in 0..9u32 {
                    let (a, b) = (d.point(i), d.point(j));
                    assert_eq!(
                        l1_distance(a, b).to_bits(),
                        kernels::l1_distance(a, b).to_bits(),
                        "l1 {tier:?} {i},{j}"
                    );
                    assert_eq!(
                        l2_distance(a, b).to_bits(),
                        kernels::l2_distance(a, b).to_bits(),
                        "l2 {tier:?} {i},{j}"
                    );
                    assert_eq!(
                        linf_distance(a, b).to_bits(),
                        kernels::linf_distance(a, b).to_bits(),
                        "linf {tier:?} {i},{j}"
                    );
                    for eps in [0.2, 1.0, 2.5] {
                        assert_eq!(
                            l2_within(a, b, eps),
                            kernels::l2_within(a, b, eps),
                            "within {tier:?} {i},{j} {eps}"
                        );
                    }
                }
            }
        }
        set_level(saved);
    }

    #[test]
    fn block_dispatch_matches_portable_at_every_tier() {
        let d = ds(23, 17);
        let block = crate::soa::SoABlock::from_range(&d, 0..23);
        let probe = d.point(11).to_vec();
        let saved = level();
        for tier in supported() {
            set_level(tier);
            for eps in [0.1, 0.6, 2.0] {
                for (name, f) in [
                    (
                        "l1",
                        l1_within_block
                            as fn(&[f64], &SoABlock, Range<usize>, f64, &mut Vec<u32>),
                    ),
                    ("l2", l2_within_block),
                    ("linf", linf_within_block),
                ] {
                    let mut got = Vec::new();
                    f(&probe, &block, 0..23, eps, &mut got);
                    let mut want = Vec::new();
                    match name {
                        "l1" => {
                            portable::l1_within_block(&probe, &block, 0..23, eps, &mut want)
                        }
                        "l2" => {
                            portable::l2_within_block(&probe, &block, 0..23, eps, &mut want)
                        }
                        _ => portable::linf_within_block(&probe, &block, 0..23, eps, &mut want),
                    }
                    assert_eq!(got, want, "{name} {tier:?} eps={eps}");
                }
            }
        }
        set_level(saved);
    }

    #[test]
    fn level_names_round_trip_the_env_spelling() {
        for l in ALL_LEVELS {
            assert_eq!(parse_level(l.name()), Some(l));
            assert_eq!(Level::from_u8(l as u8), l);
        }
        assert_eq!(parse_level(" AVX512\n"), Some(Level::Avx512));
        assert_eq!(parse_level("off"), Some(Level::Scalar));
        assert_eq!(parse_level("avx9000"), None);
        assert_eq!(Level::from_u8(0), Level::Scalar);
    }
}

//! The runtime-dispatched block kernel: a list of probe windows against
//! one structure-of-arrays candidate tile.
//!
//! Refinement has two code paths. A single pair goes through the 4-lane
//! scalar kernels in [`crate::kernels`] — [`crate::Metric::within`] calls
//! them directly, at every tier. A candidate *tile* goes through
//! [`within_windows`], the one dispatcher here, once per tile (or per run
//! of its windows): a one-time capability probe
//! picks the best block tier the host supports (AVX-512 → AVX2 → SSE2 →
//! scalar on x86-64; every other architecture runs the scalar tier, the
//! reference the vector tiers are tested against), and every later call
//! jumps straight to that tier. [`Level`] therefore names the *block*
//! tier. The probe honours the `HDSJ_SIMD` environment variable
//! (`off`/`scalar`, `sse2`, `avx2`, `avx512` — clamped to what the host
//! actually supports; see [`parse_level`]), and tests/benches can
//! override it programmatically with [`set_level`].
//!
//! There is no per-pair vector tier: the contract below gives a pair one
//! accumulator vector, hence the scalar kernel's latency chain, and SSE2/
//! AVX2 pair kernels measured 1.02–1.10× of it at d = 64 while the
//! tile-major sweeps leave the pair path a few percent of the candidates
//! (DESIGN §16).
//!
//! ## The exactness contract
//!
//! Dispatch would be useless if the tiers disagreed with each other or
//! with the pair kernel. They cannot: every tier computes, per candidate
//! lane, the *bit-identical* sum of the 4-lane scalar kernels —
//! dimensions `≡ k (mod 4)` feed lane accumulator `k`, the per-candidate
//! result is the canonical fold `(acc0 + acc1) + (acc2 + acc3)` plus a
//! separately chained scalar tail, all in plain IEEE sub/mul/add (never
//! FMA). Early exits only ever compare a *partial* monotone fold against
//! the budget, so a block decision equals the full-sum decision — that
//! is, [`crate::Metric::within`] on the same pair — at every tier, and
//! join results do not depend on the dispatch level. The vector tiers run
//! an f32 prefilter in front of that sum on calls with enough work for it
//! to pay; it decides nothing: it drops only a lane whose f32 sum exceeds
//! a bound that proves the f64 sum over the budget, and the f64 sum decides
//! every lane it keeps (DESIGN §16). `Lp` for general `p`
//! is `powf`-bound and stays on [`portable::lp_within_windows`] at every
//! tier.

pub mod portable;
pub mod tile;

#[cfg(target_arch = "x86_64")]
mod x86;

use crate::dataset::Dataset;
use crate::soa::SoABlock;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// A block-kernel tier. Discriminants order tiers by capability so clamping
/// a request to the host is a numeric comparison; `0` is reserved in the
/// private `DISPATCH` atomic for "not probed yet".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// One candidate at a time through [`portable`] — always available,
    /// and the reference every other tier is differentially tested against.
    Scalar = 1,
    /// Two candidates per vector (x86-64 baseline; no runtime probe needed).
    Sse2 = 2,
    /// Four candidates per vector (runtime-probed).
    Avx2 = 3,
    /// Eight candidates per vector (runtime-probed `avx512f`).
    Avx512 = 4,
}

impl Level {
    /// Stable lowercase name, matching the `HDSJ_SIMD` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Sse2 => "sse2",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            2 => Level::Sse2,
            3 => Level::Avx2,
            4 => Level::Avx512,
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
    tiers
}

/// The best tier this host supports.
pub fn best() -> Level {
    supported().last().copied().unwrap_or(Level::Scalar)
}

/// The level the environment asks for: `HDSJ_SIMD` if set, else the
/// host's best. An unknown value falls back to the best too — a library
/// probe has nobody to report to; `hdsj` rejects one at start-up with
/// [`parse_level`] before any kernel runs.
fn requested() -> Level {
    std::env::var("HDSJ_SIMD")
        .ok()
        .and_then(|v| parse_level(&v))
        .unwrap_or_else(best)
}

/// Every spelling [`parse_level`] accepts, `|`-separated, for messages.
pub const SPELLINGS: &str = "off|scalar|0|sse2|avx2|avx512";

/// Parses an `HDSJ_SIMD` spelling: a [`Level::name`], or `off`/`0` for
/// the scalar tier (case and surrounding whitespace ignored). `None` for
/// anything else.
pub fn parse_level(v: &str) -> Option<Level> {
    match v.trim().to_ascii_lowercase().as_str() {
        "off" | "scalar" | "0" => Some(Level::Scalar),
        "sse2" => Some(Level::Sse2),
        "avx2" => Some(Level::Avx2),
        "avx512" => Some(Level::Avx512),
        _ => None,
    }
}

/// Clamps a requested tier to the host: the most capable supported tier
/// that does not exceed the request (requesting `avx512` on an AVX2 host
/// yields `avx2`).
fn clamp(requested: Level) -> Level {
    supported()
        .into_iter()
        .filter(|l| *l <= requested)
        .max()
        .unwrap_or(Level::Scalar)
}

/// What the block kernel reuses from call to call — the probes' f32
/// copies and a two-probe pass's parked survivor masks — so that no call
/// allocates once a run has warmed it. One per refiner.
#[derive(Debug, Default)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub struct Scratch {
    probe32: Vec<f32>,
    masks: Vec<u32>,
}

/// The one block dispatcher: for each window `(i, lanes)` of `windows`,
/// appends `(i, id)` for every lane in `lanes` whose candidate is within
/// `budget` of probe row `i` of `probes`, window by window and within a
/// window in lane order, at the active tier. One call per tile: a tier
/// pays its fixed costs once per list. `budget` is in the accumulation
/// domain — `Σ |pᵢ − cᵢ|` (L1), `Σ (pᵢ − cᵢ)²` with `SQ` and `ε²` (L2),
/// `max |pᵢ − cᵢ|` with `MAX` (L∞) — and [`crate::Metric::within_windows`]
/// converts ε to it once per call. The `_` arm is the scalar tier: `clamp`
/// never stores a tier the host lacks, so off x86-64 it is the only arm
/// there is.
pub fn within_windows<const SQ: bool, const MAX: bool>(
    probes: &Dataset,
    block: &SoABlock,
    windows: &[(u32, Range<usize>)],
    budget: f64,
    scratch: &mut Scratch,
    out: &mut Vec<(u32, u32)>,
) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => {
            x86::sse2_within_windows::<SQ, MAX>(probes, block, windows, budget, scratch, out)
        }
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => {
            x86::avx2_within_windows::<SQ, MAX>(probes, block, windows, budget, scratch, out)
        }
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => {
            x86::avx512_within_windows::<SQ, MAX>(probes, block, windows, budget, scratch, out)
        }
        _ => {
            let _ = scratch;
            portable::within_windows::<SQ, MAX>(probes, block, windows, budget, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    const ALL_LEVELS: [Level; 4] = [Level::Scalar, Level::Sse2, Level::Avx2, Level::Avx512];

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
    // the smoke-level check that the dispatcher reaches a kernel that
    // agrees with the scalar tier's. One test body sweeps the tiers
    // because set_level mutates process-global state.
    #[test]
    fn block_dispatch_matches_portable_at_every_tier() {
        fn check<const SQ: bool, const MAX: bool>(name: &str, tier: Level) {
            let d = ds(23, 17);
            let block = crate::soa::SoABlock::from_range(&d, 0..23);
            let windows = [(11, 0..23), (3, 5..23), (4, 0..9)];
            for budget in [0.1, 0.6, 2.0] {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let mut scratch = Scratch::default();
                within_windows::<SQ, MAX>(&d, &block, &windows, budget, &mut scratch, &mut got);
                for (i, lanes) in windows.clone() {
                    let mut ids = Vec::new();
                    portable::within_block::<SQ, MAX>(
                        d.point(i),
                        &block,
                        lanes,
                        budget,
                        &mut ids,
                    );
                    want.extend(ids.into_iter().map(|j| (i, j)));
                }
                assert_eq!(got, want, "{name} {tier:?} budget={budget}");
            }
        }
        let saved = level();
        for tier in supported() {
            assert_eq!(set_level(tier), tier);
            check::<false, false>("l1", tier);
            check::<true, false>("l2", tier);
            check::<false, true>("linf", tier);
        }
        set_level(saved);
    }

    #[test]
    fn level_names_round_trip_the_env_spelling() {
        for l in ALL_LEVELS {
            assert_eq!(parse_level(l.name()), Some(l));
            assert_eq!(Level::from_u8(l as u8), l);
        }
        assert!(SPELLINGS.split('|').all(|v| parse_level(v).is_some()));
        assert!(ALL_LEVELS
            .iter()
            .all(|l| SPELLINGS.split('|').any(|v| v == l.name())));
        assert_eq!(parse_level(" AVX512\n"), Some(Level::Avx512));
        assert_eq!(parse_level("off"), Some(Level::Scalar));
        assert_eq!(parse_level("avx9000"), None);
        assert_eq!(Level::from_u8(0), Level::Scalar);
    }
}

//! The machine-speed reference: a fixed job from the harness's own code,
//! run as a child process between the joins, that every duration of a pass
//! is scaled by.
//!
//! Why. The container this was written on is a two-core guest on a shared
//! host, and how fast it executes drifts by ±20 % over minutes and halves
//! for seconds at a time (README, "Noise"). Within one pass the drift is
//! common to everything that runs: over ten runs of one commit the `msj`,
//! `bf`, `ekdb` and `rsj` times of a pass moved together, fastest pass to
//! slowest, by 1.48×, 1.36×, 1.41× and 1.38×. A job that never changes,
//! interleaved with the joins round by round, measures that common factor;
//! dividing by it leaves what the program itself costs. Over ten runs of one
//! commit in a busy spell the raw medians of the twelve bounded cells spread
//! by 0.06–0.30 (mean 0.20) and the scaled ones by 0.06–0.15 (mean 0.10). Later changes may
//! not edit this package, so the job is the same on both sides of every
//! comparison. Every raw sample and the factor are in `results.json`.
//!
//! The job is a child process, not a loop in the harness, so that it is
//! exposed to the same things a join is: process start-up, first-touch page
//! faults, and a run long enough to sample the machine the way a join does.
//! Its work is what the joins mostly do — squared-distance sums over rows of
//! `f64`, a nested loop with a data-dependent branch — but it shares no code
//! with them.

use crate::rng::SplitMix64;
use std::hint::black_box;

/// The calibrator's nominal wall time, spawn to exit: what it takes on the
/// container this was written on when little disturbs it (0.18–0.21 s
/// measured), rounded. A pass's durations are multiplied by `REFERENCE_S /
/// (the median of its own calibrator runs)`, so a reported second is a second
/// of a machine that runs the calibrator in `REFERENCE_S`. It is a unit, not a
/// measurement: changing it rescales every duration alike.
pub const REFERENCE_S: f64 = 0.2;

const POINTS: usize = 10_000;
const DIMS: usize = 16;
const EPS: f64 = 0.55;

/// The fixed job: count the pairs of `POINTS` seeded uniform points in
/// `[0,1)^DIMS` within `EPS` (L2), by a plain nested loop.
pub fn job() -> u64 {
    let mut rng = SplitMix64(0x5eed);
    let points: Vec<f64> = (0..POINTS * DIMS)
        .map(|_| (rng.next() >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    let mut hits = 0u64;
    for (i, p) in points.chunks_exact(DIMS).enumerate() {
        for q in points[(i + 1) * DIMS..].chunks_exact(DIMS) {
            let d2: f64 = p.iter().zip(q).map(|(x, y)| (x - y) * (x - y)).sum();
            if d2 <= EPS * EPS {
                hits += 1;
            }
        }
    }
    black_box(hits)
}

/// How fast the machine ran during a pass, relative to the reference
/// machine: above 1 when it was slower. The median of the calibrator's runs,
/// as every duration is the median of its own.
pub fn slowdown(calibrator_s: &[f64]) -> Result<f64, String> {
    crate::stats::median(calibrator_s)
        .map(|typical| typical / REFERENCE_S)
        .ok_or_else(|| "the calibrator never ran".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_is_fixed() {
        // Same points, same count, every time: it depends on no seed and no
        // input. Some pairs match and most do not, like the joins' own.
        let hits = job();
        assert_eq!(hits, job());
        assert!(
            hits > 10 && hits < (POINTS * POINTS / 1000) as u64,
            "{hits}"
        );
    }

    #[test]
    fn slowdown_is_relative_to_the_reference() {
        assert!(slowdown(&[]).is_err());
        assert_eq!(
            slowdown(&[4.0 * REFERENCE_S, 2.0 * REFERENCE_S, 9.0 * REFERENCE_S]),
            Ok(4.0)
        );
    }
}

//! Quantization of unit-domain coordinates onto the `2^level` grid
//! hierarchy.
//!
//! Level `l` divides `[0, 1)` into `2^l` half-open cells per dimension; a
//! point's cell coordinate at level `l` is `⌊x · 2^l⌋`. These helpers are
//! shared by MSJ's level assignment and the Hilbert bulk loader.

/// Grid coordinate of unit-domain value `x` at resolution `bits`
/// (`2^bits` cells). Values are clamped into `[0, 2^bits - 1]` so callers
/// may pass ε-expanded coordinates that stick out of the unit cube.
#[inline]
pub fn quantize(x: f64, bits: u32) -> u32 {
    debug_assert!((1..=31).contains(&bits));
    let cells = (1u64 << bits) as f64;
    let v = x * cells;
    // `as` truncates, which is `floor` for the non-negative values left
    // (and maps NaN to 0); a negative `v` floors below zero, hence clamps.
    if v >= cells {
        (1u32 << bits) - 1
    } else if v >= 0.0 {
        v as u32
    } else {
        0
    }
}

/// Quantizes a whole point into `out` at resolution `bits`.
#[inline]
pub fn quantize_point(p: &[f64], bits: u32, out: &mut [u32]) {
    debug_assert_eq!(p.len(), out.len());
    for (o, &x) in out.iter_mut().zip(p) {
        *o = quantize(x, bits);
    }
}

/// Number of leading bits shared by `a` and `b` when both are `bits`-bit
/// grid coordinates — i.e. the deepest level at which the two coordinates
/// fall in the same cell. Used by MSJ's size-separation level assignment.
#[inline]
pub fn common_prefix_len(a: u32, b: u32, bits: u32) -> u32 {
    let x = a ^ b;
    if x == 0 {
        bits
    } else {
        // Leading zeros of the significant `bits` window.
        (x.leading_zeros()).saturating_sub(32 - bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantize_hand_cases() {
        assert_eq!(quantize(0.0, 3), 0);
        assert_eq!(quantize(0.124, 3), 0);
        assert_eq!(quantize(0.126, 3), 1);
        assert_eq!(quantize(0.999, 3), 7);
    }

    #[test]
    fn quantize_clamps_out_of_domain_values() {
        assert_eq!(quantize(-0.5, 4), 0);
        assert_eq!(quantize(1.0, 4), 15);
        assert_eq!(quantize(2.5, 4), 15);
    }

    #[test]
    fn quantize_is_the_clamped_floor() {
        // The definition, with the `floor` the implementation avoids.
        let by_floor = |x: f64, bits: u32| {
            let cells = (1u64 << bits) as f64;
            let v = (x * cells).floor();
            if v < 0.0 {
                0
            } else if v >= cells {
                (1u32 << bits) - 1
            } else {
                v as u32
            }
        };
        let mut xs = vec![
            0.0,
            -0.0,
            1.0,
            -1e-300,
            1e-300,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE,
            1.0 - f64::EPSILON / 2.0,
            1.0 + f64::EPSILON,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Every cell boundary of a 7-bit grid, and one ulp to either side.
        for k in -3i32..=131 {
            let x = k as f64 / 128.0;
            xs.extend([x, x - x.abs() * f64::EPSILON, x + x.abs() * f64::EPSILON]);
        }
        for &x in &xs {
            for bits in [1u32, 2, 7, 16, 20, 31] {
                assert_eq!(quantize(x, bits), by_floor(x, bits), "x={x:e} bits={bits}");
            }
        }
    }

    #[test]
    fn quantize_point_fills_buffer() {
        let mut out = [0u32; 3];
        quantize_point(&[0.0, 0.5, 0.99], 2, &mut out);
        assert_eq!(out, [0, 2, 3]);
    }

    #[test]
    fn common_prefix_hand_cases() {
        assert_eq!(common_prefix_len(0b1010, 0b1010, 4), 4);
        assert_eq!(common_prefix_len(0b1010, 0b1011, 4), 3);
        assert_eq!(common_prefix_len(0b1010, 0b0010, 4), 0);
        assert_eq!(common_prefix_len(0, 1, 16), 15);
    }

    proptest! {
        #[test]
        fn prop_quantize_within_range(x in -1.0f64..2.0, bits in 1u32..31) {
            let q = quantize(x, bits);
            prop_assert!(q < (1u32 << bits));
            let floor = (x * (1u64 << bits) as f64).floor();
            prop_assert_eq!(q as f64, floor.clamp(0.0, ((1u64 << bits) - 1) as f64));
        }

        #[test]
        fn prop_common_prefix_means_same_cell(a in 0u32..1024, b in 0u32..1024) {
            let bits = 10;
            let l = common_prefix_len(a, b, bits);
            // At level l both coords fall in the same cell...
            prop_assert_eq!(a >> (bits - l.min(bits)), b >> (bits - l), "same cell at level l");
            // ...and at level l+1 they differ (when l < bits).
            if l < bits {
                prop_assert!(a >> (bits - l - 1) != b >> (bits - l - 1));
            }
        }
    }
}

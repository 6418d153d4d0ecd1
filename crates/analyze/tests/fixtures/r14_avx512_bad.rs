//! R14 fixture, AVX-512 tier: a mask type in an ungated signature, a
//! 512-bit vector under a gate that is only `avx2`, an `avx2` fn entering
//! an `avx512f` kernel, and an 8-lane load whose bounds check is the
//! wrapping `at + 8 <= len` form.
use std::arch::x86_64::{__m512d, __mmask8, _mm512_add_pd, _mm512_loadu_pd};

pub fn ungated_mask(bits: u8) -> __mmask8 {
    bits
}

#[target_feature(enable = "avx2")]
fn narrow_gate(xs: &[f64]) -> f64 {
    let v: __m512d = load8(xs, 0);
    f64::from(u8::from(v == v))
}

#[target_feature(enable = "avx512f")]
fn load8(xs: &[f64], at: usize) -> __m512d {
    debug_assert!(at + 8 <= xs.len());
    // SAFETY: the assert above keeps the load in bounds — unless it wraps.
    unsafe { _mm512_loadu_pd(xs.as_ptr().add(at)) }
}

#[target_feature(enable = "avx512f")]
fn doubled(v: __m512d) -> __m512d {
    _mm512_add_pd(v, v)
}

//! R14 fixture, AVX-512 tier: `_mm512_*` intrinsics and the `__m512d` /
//! `__mmask8` types stay inside `avx512f`-gated fns, signatures included;
//! the 8-lane load states the overflow-safe precondition R13 and R15
//! discharge; and an `avx512f` fn may enter an `avx2`-gated one, which the
//! wider feature implies.
use std::arch::x86_64::{
    __m256d, __m512d, __mmask8, _mm256_add_pd, _mm512_cmp_pd_mask, _mm512_loadu_pd, _CMP_GT_OQ,
};

#[target_feature(enable = "avx512f")]
fn load8(xs: &[f64], at: usize) -> __m512d {
    debug_assert!(xs.len() >= 8 && at <= xs.len() - 8);
    // SAFETY: the assert above keeps `at + 8 <= xs.len()`.
    unsafe { _mm512_loadu_pd(xs.as_ptr().add(at)) }
}

#[target_feature(enable = "avx512f")]
fn gt_mask(a: __m512d, b: __m512d) -> __mmask8 {
    _mm512_cmp_pd_mask::<_CMP_GT_OQ>(a, b)
}

#[target_feature(enable = "avx2")]
fn trailing_group(v: __m256d) -> __m256d {
    _mm256_add_pd(v, v)
}

#[target_feature(enable = "avx512f")]
pub fn widest(xs: &[f64], ys: &[f64], rest: __m256d) -> (u32, __m256d) {
    let n = xs.len().min(ys.len());
    let mut rejected = 0;
    let mut t = 0;
    while t + 8 <= n {
        rejected += u32::from(gt_mask(load8(xs, t), load8(ys, t)));
        t += 8;
    }
    (rejected, trailing_group(rest))
}

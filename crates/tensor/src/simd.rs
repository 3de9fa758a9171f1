//! Explicit AVX2+FMA and AVX-512 micro-kernels for the blocked GEMM
//! (cargo feature `simd`, `x86_64` only).
//!
//! # Kernel shape
//!
//! Identical to the safe kernel in [`crate::gemm`]: a 6×16 register tile
//! (`MR = 6` rows × `NR = 16` columns). The AVX2 arm holds it in 12
//! `__m256` accumulators — per k step: two loads of the B strip row, six
//! broadcasts of the A strip column, twelve `_mm256_fmadd_ps`. The AVX-512
//! arm holds the same tile in just 6 `__m512` accumulators (`NR = 16` is
//! exactly one 512-bit vector per row) — per k step: **one** B load, six
//! broadcasts, six `_mm512_fmadd_ps`, half the AVX2 instruction count per
//! update. Both k loops are unrolled ×4 to amortize loop control;
//! accumulators are **not** split across k, because that would reassociate
//! the sum.
//!
//! # Bit-parity contract
//!
//! For every output element every kernel performs *exactly* the same
//! operations in the same order as the safe micro-kernel: one fused
//! multiply-add per k, k ascending, into a single accumulator.
//! `f32::mul_add`, `_mm256_fmadd_ps` and `_mm512_fmadd_ps` are all
//! IEEE-754 fused operations (one rounding), so results are bit-identical
//! whichever kernel — or the autovectorized safe loop — executes the tile.
//! The feature-matrix case in `tests/kernel_parity.rs` pins this: every
//! requested kernel × thread counts × odd shapes must agree to the last
//! bit.
//!
//! # Dispatch
//!
//! The kernel is the calling thread's [`crate::Kernel`], read once per
//! GEMM call by [`crate::gemm`]. It defaults to (and any request is capped
//! at) [`crate::Kernel::best`]: AVX-512 when [`detected_avx512`] reports
//! `avx512f` at runtime, else AVX2+FMA when [`detected`] reports it, else
//! the safe kernel — the binary stays runnable on older x86-64 CPUs, which
//! silently fall back, as do all non-x86 targets and builds without the
//! `simd` feature.

// The only unsafe code in this module is the intrinsics kernel below; its
// preconditions (CPU support, panel bounds) are checked by the safe wrapper.
use crate::gemm::{MR, NR};
use std::sync::OnceLock;

/// Whether the running CPU supports the AVX2+FMA kernel. Detected once per
/// process via `is_x86_feature_detected!`.
pub(crate) fn detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

/// Whether the running CPU supports the AVX-512 kernel (`avx512f` covers
/// every instruction it uses). Detected once per process.
pub(crate) fn detected_avx512() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| is_x86_feature_detected!("avx512f"))
}

/// Safe wrapper over the intrinsics kernel: `acc += Apanel × Bpanel` over
/// `kb` rank-1 updates on packed panels, bit-identical to
/// `gemm::microkernel`.
///
/// # Panics
///
/// Debug-asserts CPU support and panel bounds; callers must route through
/// [`crate::gemm`]'s dispatch, which checks [`detected`] first.
pub(crate) fn microkernel_6x16(
    kb: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(detected(), "simd kernel dispatched without CPU support");
    assert!(a_panel.len() >= kb * MR, "A panel too short");
    assert!(b_panel.len() >= kb * NR, "B panel too short");
    // SAFETY: `detected()` verified AVX2+FMA before this path was selected
    // (debug-asserted above, guaranteed by the dispatch in `gemm`); the
    // asserts above bound every pointer offset the kernel computes.
    #[allow(unsafe_code)]
    unsafe {
        kernel(kb, a_panel.as_ptr(), b_panel.as_ptr(), acc)
    }
}

/// The 6×16 AVX2+FMA register-tile kernel.
///
/// # Safety
///
/// Requires AVX2 and FMA at runtime, `ap` valid for `kb * MR` reads and
/// `bp` valid for `kb * NR` reads.
#[allow(unsafe_code)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kernel(kb: usize, ap: *const f32, bp: *const f32, acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let mut ap = ap;
    let mut bp = bp;
    // Start from the incoming accumulator so the contract (`acc +=`, not
    // `acc =`) matches the safe kernel exactly.
    let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
    for (row, acc_row) in c.iter_mut().zip(acc.iter()) {
        row[0] = _mm256_loadu_ps(acc_row.as_ptr());
        row[1] = _mm256_loadu_ps(acc_row.as_ptr().add(8));
    }
    // One rank-1 update: 2 B loads, 6 A broadcasts, 12 FMAs. Exactly one
    // fused multiply-add per output element, k ascending — the bit-parity
    // contract with the safe kernel.
    macro_rules! rank1 {
        () => {{
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (ir, row) in c.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*ap.add(ir));
                row[0] = _mm256_fmadd_ps(a, b0, row[0]);
                row[1] = _mm256_fmadd_ps(a, b1, row[1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }};
    }
    let mut kk = 0;
    while kk + 4 <= kb {
        rank1!();
        rank1!();
        rank1!();
        rank1!();
        kk += 4;
    }
    while kk < kb {
        rank1!();
        kk += 1;
    }
    for (row, acc_row) in c.iter().zip(acc.iter_mut()) {
        _mm256_storeu_ps(acc_row.as_mut_ptr(), row[0]);
        _mm256_storeu_ps(acc_row.as_mut_ptr().add(8), row[1]);
    }
}

/// Safe wrapper over the AVX-512 intrinsics kernel: same contract as
/// [`microkernel_6x16`], bit-identical to it and to `gemm::microkernel`.
///
/// # Panics
///
/// Debug-asserts CPU support and panel bounds; callers must route through
/// [`crate::gemm`]'s dispatch, which checks [`detected_avx512`] first.
pub(crate) fn microkernel_6x16_avx512(
    kb: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(
        detected_avx512(),
        "avx512 kernel dispatched without CPU support"
    );
    assert!(a_panel.len() >= kb * MR, "A panel too short");
    assert!(b_panel.len() >= kb * NR, "B panel too short");
    // SAFETY: `detected_avx512()` verified avx512f before this path was
    // selected (debug-asserted above, guaranteed by the dispatch in
    // `gemm`); the asserts above bound every pointer offset the kernel
    // computes.
    #[allow(unsafe_code)]
    unsafe {
        kernel_avx512(kb, a_panel.as_ptr(), b_panel.as_ptr(), acc)
    }
}

/// The 6×16 AVX-512 register-tile kernel: one `__m512` accumulator per
/// tile row.
///
/// # Safety
///
/// Requires `avx512f` at runtime, `ap` valid for `kb * MR` reads and `bp`
/// valid for `kb * NR` reads.
#[allow(unsafe_code)]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_avx512(kb: usize, ap: *const f32, bp: *const f32, acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let mut ap = ap;
    let mut bp = bp;
    // Start from the incoming accumulator so the contract (`acc +=`, not
    // `acc =`) matches the safe kernel exactly.
    let mut c: [__m512; MR] = [_mm512_setzero_ps(); MR];
    for (row, acc_row) in c.iter_mut().zip(acc.iter()) {
        *row = _mm512_loadu_ps(acc_row.as_ptr());
    }
    // One rank-1 update: 1 B load, 6 A broadcasts, 6 FMAs. Exactly one
    // fused multiply-add per output element, k ascending — the bit-parity
    // contract with the safe kernel.
    macro_rules! rank1 {
        () => {{
            let b = _mm512_loadu_ps(bp);
            for (ir, row) in c.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*ap.add(ir));
                *row = _mm512_fmadd_ps(a, b, *row);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }};
    }
    let mut kk = 0;
    while kk + 4 <= kb {
        rank1!();
        rank1!();
        rank1!();
        rank1!();
        kk += 4;
    }
    while kk < kb {
        rank1!();
        kk += 1;
    }
    for (row, acc_row) in c.iter().zip(acc.iter_mut()) {
        _mm512_storeu_ps(acc_row.as_mut_ptr(), *row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DivaRng;

    /// The intrinsics kernels must agree with the safe kernel to the bit
    /// for every panel length, including the <4 unroll tails.
    #[test]
    fn intrinsics_match_safe_kernel_bitwise() {
        if !detected() {
            eprintln!("skipping: host lacks AVX2+FMA");
            return;
        }
        let mut rng = DivaRng::seed_from_u64(77);
        for kb in [1usize, 2, 3, 4, 5, 7, 8, 33, 768] {
            let a: Vec<f32> = (0..kb * MR).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let b: Vec<f32> = (0..kb * NR).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut acc_simd = [[0.5f32; NR]; MR];
            let mut acc_safe = [[0.5f32; NR]; MR];
            microkernel_6x16(kb, &a, &b, &mut acc_simd);
            crate::gemm::microkernel(kb, &a, &b, &mut acc_safe);
            assert_eq!(acc_simd, acc_safe, "kb={kb} diverged");
            if detected_avx512() {
                let mut acc_512 = [[0.5f32; NR]; MR];
                microkernel_6x16_avx512(kb, &a, &b, &mut acc_512);
                assert_eq!(acc_512, acc_safe, "avx512 kb={kb} diverged");
            }
        }
    }
}

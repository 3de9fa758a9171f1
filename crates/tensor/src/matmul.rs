//! GEMM entry points in all transpose flavours, plus the outer-product
//! decomposition used by DiVa's GEMM engine (paper Figure 9).
//!
//! All four flavours route through the cache-blocked, register-tiled,
//! M-parallel backend in [`crate::gemm`]; transposition is absorbed by the
//! packing stage, so `tn`/`nt`/`tt` cost the same as `nn`. The seed's
//! scalar i-k-j kernel is retained as [`matmul_reference`] — it is the
//! baseline every parity test and throughput benchmark compares against.

use crate::gemm::{gemm, gemm_reference, MatRef};
use crate::tensor::Tensor;

/// Computes `C = A × B` for row-major rank-2 tensors.
///
/// `A` is `(M, K)`, `B` is `(K, N)`, and the result is `(M, N)`.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use diva_tensor::{matmul, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// assert_eq!(matmul(&a, &b), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = a.dims2();
    let (kb, n) = b.dims2();
    assert_eq!(
        ka, kb,
        "matmul inner dimension mismatch: ({m},{ka}) x ({kb},{n})"
    );
    let mut out = Tensor::zeros(&[m, n]);
    gemm(
        m,
        ka,
        n,
        MatRef::row_major(a.data(), ka),
        MatRef::row_major(b.data(), n),
        out.data_mut(),
    );
    out
}

/// Computes `C = Aᵀ × B` where `A` is `(K, M)` and `B` is `(K, N)`.
///
/// This is the shape of the weight-gradient GEMM in backpropagation
/// (`G(W) = Xᵀ × G(Y)`, paper Figure 6 middle).
///
/// # Panics
///
/// Panics on rank/shape mismatch.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (ka, m) = a.dims2();
    let (kb, n) = b.dims2();
    assert_eq!(
        ka, kb,
        "matmul_tn K dimension mismatch: ({ka},{m})^T x ({kb},{n})"
    );
    let mut out = Tensor::zeros(&[m, n]);
    gemm(
        m,
        ka,
        n,
        MatRef::transposed(a.data(), m),
        MatRef::row_major(b.data(), n),
        out.data_mut(),
    );
    out
}

/// Computes `C = A × Bᵀ` where `A` is `(M, K)` and `B` is `(N, K)`.
///
/// This is the shape of the activation-gradient GEMM in backpropagation
/// (`G(X) = G(Y) × Wᵀ`).
///
/// # Panics
///
/// Panics on rank/shape mismatch.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = a.dims2();
    let (n, kb) = b.dims2();
    assert_eq!(
        ka, kb,
        "matmul_nt K dimension mismatch: ({m},{ka}) x ({n},{kb})^T"
    );
    let mut out = Tensor::zeros(&[m, n]);
    gemm(
        m,
        ka,
        n,
        MatRef::row_major(a.data(), ka),
        MatRef::transposed(b.data(), kb),
        out.data_mut(),
    );
    out
}

/// Computes `C = Aᵀ × Bᵀ` where `A` is `(K, M)` and `B` is `(N, K)`.
///
/// # Panics
///
/// Panics on rank/shape mismatch.
pub fn matmul_tt(a: &Tensor, b: &Tensor) -> Tensor {
    let (ka, m) = a.dims2();
    let (n, kb) = b.dims2();
    assert_eq!(
        ka, kb,
        "matmul_tt K dimension mismatch: ({ka},{m})^T x ({n},{kb})^T"
    );
    let mut out = Tensor::zeros(&[m, n]);
    gemm(
        m,
        ka,
        n,
        MatRef::transposed(a.data(), m),
        MatRef::transposed(b.data(), kb),
        out.data_mut(),
    );
    out
}

/// The seed's scalar i-k-j GEMM, kept verbatim as the parity/benchmark
/// baseline for the blocked backend.
///
/// # Panics
///
/// Panics on rank/shape mismatch, like [`matmul`].
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = a.dims2();
    let (kb, n) = b.dims2();
    assert_eq!(
        ka, kb,
        "matmul inner dimension mismatch: ({m},{ka}) x ({kb},{n})"
    );
    let mut out = Tensor::zeros(&[m, n]);
    gemm_reference(
        m,
        ka,
        n,
        MatRef::row_major(a.data(), ka),
        MatRef::row_major(b.data(), n),
        out.data_mut(),
    );
    out
}

/// Accumulates one outer-product step `C += a ⊗ b` into the row-major
/// `(a.len(), b.len())` matrix `c`.
///
/// This is the per-cycle operation of DiVa's outer-product GEMM engine
/// (paper Figure 9): a length-`M` column of the LHS and a length-`N` row of
/// the RHS are broadcast across the PE array, and every PE performs one MAC.
///
/// # Panics
///
/// Panics if `c.len() != a.len() * b.len()`.
pub fn outer_product_accumulate(c: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(
        c.len(),
        a.len() * b.len(),
        "outer product output holds {} elements, a ⊗ b is {}x{}",
        c.len(),
        a.len(),
        b.len()
    );
    if b.is_empty() {
        return;
    }
    for (crow, &ai) in c.chunks_exact_mut(b.len()).zip(a) {
        if ai == 0.0 {
            continue;
        }
        for (cij, &bj) in crow.iter_mut().zip(b) {
            *cij += ai * bj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DivaRng;

    fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.max_abs_diff(b) < tol
    }

    #[test]
    fn transpose_variants_agree() {
        let mut rng = DivaRng::seed_from_u64(11);
        let a = Tensor::uniform(&[4, 6], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[6, 5], -1.0, 1.0, &mut rng);
        let c = matmul(&a, &b);
        assert!(close(&matmul_tn(&a.transpose(), &b), &c, 1e-5));
        assert!(close(&matmul_nt(&a, &b.transpose()), &c, 1e-5));
        assert!(close(&matmul_tt(&a.transpose(), &b.transpose()), &c, 1e-5));
    }

    #[test]
    fn blocked_agrees_with_reference_above_threshold() {
        // 96³ is above the blocked-path threshold, so this exercises the
        // packed kernel end-to-end through the public API.
        let mut rng = DivaRng::seed_from_u64(12);
        let a = Tensor::uniform(&[96, 96], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[96, 96], -1.0, 1.0, &mut rng);
        let fast = matmul(&a, &b);
        let slow = matmul_reference(&a, &b);
        assert!(
            close(&fast, &slow, 1e-4),
            "blocked GEMM diverged: {}",
            fast.max_abs_diff(&slow)
        );
    }

    #[test]
    fn outer_product_decomposition_matches_matmul() {
        // The identity DiVa's engine is built on: A×B == Σ_k col_k(A) ⊗ row_k(B).
        let mut rng = DivaRng::seed_from_u64(13);
        let a = Tensor::uniform(&[5, 7], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[7, 3], -1.0, 1.0, &mut rng);
        let at = a.transpose(); // rows of at are columns of a
        let mut c = Tensor::zeros(&[5, 3]);
        for k in 0..7 {
            outer_product_accumulate(c.data_mut(), at.row(k), b.row(k));
        }
        assert!(close(&c, &matmul(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_by_identity_is_identity_map() {
        let mut rng = DivaRng::seed_from_u64(17);
        let a = Tensor::uniform(&[3, 3], -1.0, 1.0, &mut rng);
        assert!(close(&matmul(&a, &Tensor::eye(3)), &a, 1e-6));
        assert!(close(&matmul(&Tensor::eye(3), &a), &a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn degenerate_dims_produce_empty_or_zero() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert_eq!(matmul(&a, &b).shape().dims(), &[0, 2]);
        // K = 0 means the sum over k is empty: all zeros.
        let a = Tensor::full(&[2, 0], 1.0);
        let b = Tensor::full(&[0, 2], 1.0);
        assert_eq!(matmul(&a, &b), Tensor::zeros(&[2, 2]));
    }
}

//! Elementwise activations, loss functions and small vector utilities.

// Indexed loops below mirror hardware/tensor coordinates; iterator
// rewrites would obscure the (row, column, timestep) structure.
#![allow(clippy::needless_range_loop)]

use crate::parallel;
use crate::tensor::Tensor;

/// Width of the manually unrolled `add_scaled` strips: matches the widest
/// `f32` vector register the backend targets (one AVX-512 register, two
/// AVX2 registers), so the constant-trip-count strip loop compiles to
/// branch-free FMA vector code.
const LANES: usize = 16;

/// Elements per pool task of the elementwise kernels (64 KiB): ReLU and
/// its backward, [`add_scaled`] and [`Tensor::scale`]. A tensor of one
/// block or less runs on the calling thread.
pub(crate) const ELEMENTWISE_BLOCK: usize = 16 * 1024;

/// Applies ReLU elementwise, returning the output and the mask its
/// backward needs: `true` where the output is non-positive (`y <= 0`,
/// exactly where `x <= 0`: −0.0 stays −0.0 and is masked, NaN passes
/// through unmasked). One pass, split over the shared pool in fixed-size
/// blocks, writes both.
pub fn relu(x: &Tensor) -> (Tensor, Vec<bool>) {
    let mut out = Tensor::for_overwrite(x.shape().dims());
    let mut mask = vec![false; x.len()];
    let xv = x.data();
    let mut blocks: Vec<(&mut [f32], &mut [bool])> = out
        .data_mut()
        .chunks_mut(ELEMENTWISE_BLOCK)
        .zip(mask.chunks_mut(ELEMENTWISE_BLOCK))
        .collect();
    parallel::par_chunks_mut(&mut blocks, 1, |blk, pair| {
        let (ys, ms) = &mut pair[0];
        let xs = &xv[blk * ELEMENTWISE_BLOCK..];
        for ((y, m), &v) in ys.iter_mut().zip(ms.iter_mut()).zip(xs) {
            // Comparison (not `f32::max`) preserves NaN propagation.
            *y = if v < 0.0 { 0.0 } else { v };
            *m = *y <= 0.0;
        }
    });
    (out, mask)
}

/// Backpropagates through ReLU: zeroes the gradient entries [`relu`]'s
/// mask marks. One pass, split over the shared pool in fixed-size blocks.
///
/// # Panics
///
/// Panics if `mask` and `grad_out` differ in length.
pub fn relu_backward(grad_out: &Tensor, mask: &[bool]) -> Tensor {
    assert_eq!(
        grad_out.len(),
        mask.len(),
        "relu_backward shape mismatch: {} vs a mask of {}",
        grad_out.shape(),
        mask.len()
    );
    let mut out = Tensor::for_overwrite(grad_out.shape().dims());
    let gv = grad_out.data();
    parallel::par_chunks_mut(out.data_mut(), ELEMENTWISE_BLOCK, |blk, gs| {
        let off = blk * ELEMENTWISE_BLOCK;
        for ((g, &gy), &m) in gs.iter_mut().zip(&gv[off..]).zip(&mask[off..]) {
            *g = if m { 0.0 } else { gy };
        }
    });
    out
}

/// Adds `scale * src` into `dst` elementwise, split over the shared pool
/// in fixed-size blocks: one fused multiply-add per element, so the
/// result is the same at every thread count.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn add_scaled(dst: &mut Tensor, src: &Tensor, scale: f32) {
    assert_eq!(
        dst.shape(),
        src.shape(),
        "add_scaled shape mismatch: {} vs {}",
        dst.shape(),
        src.shape()
    );
    let sv = src.data();
    parallel::par_chunks_mut(dst.data_mut(), ELEMENTWISE_BLOCK, |blk, d| {
        axpy(d, &sv[blk * ELEMENTWISE_BLOCK..][..d.len()], scale);
    });
}

/// `dst[j] = fma(src[j], scale, dst[j])` over equal-length slices: the axpy
/// kernel at the heart of every weighted clip-reduce, shared by
/// [`add_scaled`] and [`weighted_row_sum`] so the two agree bit for bit.
fn axpy(dst: &mut [f32], src: &[f32], scale: f32) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d_chunks = dst.chunks_exact_mut(LANES);
    let mut s_chunks = src.chunks_exact(LANES);
    // Fixed-width strips with fused multiply-add; the strip width only
    // shapes vectorization, every element still gets exactly one FMA.
    for (dc, sc) in (&mut d_chunks).zip(&mut s_chunks) {
        for (d, &s) in dc.iter_mut().zip(sc) {
            *d = s.mul_add(scale, *d);
        }
    }
    for (d, &s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d = s.mul_add(scale, *d);
    }
}

/// Column block of [`weighted_row_sum`]: 4096 `f32` accumulators (16 KiB)
/// stay L1-resident while each row's matching block streams past.
const ROW_SUM_BLOCK: usize = 4096;

/// The weighted row sum `out[j] += Σᵢ weights[i] · rows[i·stride + j]` for
/// `j < out.len()`: the `(1, B, N)` GEMM `wᵀ × G` behind DP-SGD's
/// clip-weighted reduce, where `G` is `B = weights.len()` rows of a
/// row-major matrix with row stride `stride`.
///
/// With `M = 1` this is a GEMV, which the blocked GEMM would serve badly
/// (its `MR`-row register tiles would idle five rows in six and its B
/// packing would copy all of `G`). Instead `out` is cut into column blocks
/// that the shared pool splits across workers, and every block takes the
/// rows in ascending order with one fused multiply-add per element per row
/// — [`add_scaled`]'s arithmetic. The result is therefore bit-identical to
/// `B` sequential `add_scaled` calls at any thread count.
///
/// # Panics
///
/// Panics if the last row runs past the end of `rows`.
pub fn weighted_row_sum(rows: &[f32], stride: usize, weights: &[f32], out: &mut [f32]) {
    if let Some(last) = weights.len().checked_sub(1) {
        assert!(
            last * stride + out.len() <= rows.len(),
            "weighted_row_sum: {} rows of stride {stride} and width {} overrun {} elements",
            weights.len(),
            out.len(),
            rows.len()
        );
    }
    parallel::par_chunks_mut(out, ROW_SUM_BLOCK, |blk, acc| {
        let (c0, len) = (blk * ROW_SUM_BLOCK, acc.len());
        let row = |i: usize| &rows[i * stride + c0..i * stride + c0 + len];
        // Four rows per sweep of the accumulators: each element still takes
        // its FMAs one row at a time, in row order, but the block is loaded
        // and stored once per four rows instead of once per row.
        let quads = weights.chunks_exact(4);
        let tail = quads.remainder();
        for (q, w) in quads.enumerate() {
            let i = 4 * q;
            let (r0, r1, r2, r3) = (row(i), row(i + 1), row(i + 2), row(i + 3));
            for ((((d, &a), &b), &c), &e) in acc.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                *d = e.mul_add(w[3], c.mul_add(w[2], b.mul_add(w[1], a.mul_add(w[0], *d))));
            }
        }
        let first_tail = weights.len() - tail.len();
        for (k, &w) in tail.iter().enumerate() {
            axpy(acc, row(first_tail + k), w);
        }
    });
}

/// Independent `f64` accumulators of [`sq_norm`]: enough parallel add
/// chains to hide the add latency on the widest vectors the backend
/// targets. A power of two, so the lanes fold as a balanced tree.
const NORM_LANES: usize = 16;

/// The squared L2 norm `Σ xⱼ²` of a slice, accumulated in `f64` — the one
/// squared-norm kernel behind [`Tensor::squared_norm`] and every
/// per-example gradient norm (the software post-processing unit in
/// `diva-nn`).
///
/// Element `j` accumulates into lane `j mod 16` in ascending `j` (each
/// square is exact in `f64`), and the lanes fold as a fixed pairwise tree —
/// the shape of DiVa's PPU adder trees (paper Figs. 11–12). The result
/// depends only on the data: never on a caller's chunking, thread count or
/// vector width.
pub fn sq_norm(x: &[f32]) -> f64 {
    let mut lanes = [0.0f64; NORM_LANES];
    let chunks = x.chunks_exact(NORM_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (acc, &v) in lanes.iter_mut().zip(chunk) {
            let v = f64::from(v);
            *acc += v * v;
        }
    }
    for (acc, &v) in lanes.iter_mut().zip(tail) {
        let v = f64::from(v);
        *acc += v * v;
    }
    let mut width = NORM_LANES;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            lanes[i] += lanes[i + width];
        }
    }
    lanes[0]
}

/// The result of a fused softmax + cross-entropy evaluation.
#[derive(Clone, Debug)]
pub struct SoftmaxCrossEntropy {
    /// Mean loss over the batch.
    pub mean_loss: f64,
    /// Per-example losses, length = batch size.
    pub per_example_loss: Vec<f64>,
    /// Gradient of the *per-example* loss with respect to the logits, shape
    /// `(B, classes)`. Note: NOT divided by the batch size; DP-SGD needs the
    /// raw per-example gradients (paper Algorithm 1 line 19).
    pub grad_logits: Tensor,
}

/// Computes softmax cross-entropy over logits of shape `(B, classes)` against
/// integer labels.
///
/// Returns per-example losses and the per-example gradient of the loss with
/// respect to the logits (`softmax(z) - onehot(y)`), which downstream code
/// scales as needed (SGD divides by `B` during reduction; DP-SGD clips first).
///
/// # Panics
///
/// Panics if `logits` is not rank 2, `labels.len()` differs from the batch
/// size, or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> SoftmaxCrossEntropy {
    let (b, c) = logits.dims2();
    assert_eq!(labels.len(), b, "expected {b} labels, got {}", labels.len());
    let mut grad = Tensor::zeros(&[b, c]);
    let mut per_example_loss = Vec::with_capacity(b);
    for i in 0..b {
        let row = logits.row(i);
        let label = labels[i];
        assert!(label < c, "label {label} out of range for {c} classes");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f64> = row.iter().map(|&z| f64::from(z - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        let log_z = z.ln();
        let loss = log_z - f64::from(row[label] - max);
        per_example_loss.push(loss);
        let grow = &mut grad.data_mut()[i * c..(i + 1) * c];
        for j in 0..c {
            let p = (exps[j] / z) as f32;
            grow[j] = if j == label { p - 1.0 } else { p };
        }
    }
    let mean_loss = per_example_loss.iter().sum::<f64>() / b as f64;
    SoftmaxCrossEntropy {
        mean_loss,
        per_example_loss,
        grad_logits: grad,
    }
}

/// Returns the index of the maximum entry in each row of a rank-2 tensor.
///
/// # Panics
///
/// Panics if `t` is not rank 2 or has zero columns.
pub fn argmax_rows(t: &Tensor) -> Vec<usize> {
    let (b, c) = t.dims2();
    assert!(c > 0, "argmax over zero columns");
    (0..b)
        .map(|i| {
            let row = t.row(i);
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(j, _)| j)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DivaRng;

    #[test]
    fn relu_clamps_negatives_only() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let (y, mask) = relu(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        assert_eq!(mask, [true, true, false]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Tensor::from_vec(vec![-1.0, 0.5, 0.0, -0.0, f32::NAN], &[5]);
        let g = Tensor::full(&[5], 10.0);
        let (_, mask) = relu(&x);
        assert_eq!(
            relu_backward(&g, &mask).data(),
            &[0.0, 10.0, 0.0, 0.0, 10.0]
        );
    }

    #[test]
    fn softmax_gradient_matches_finite_difference() {
        let mut rng = DivaRng::seed_from_u64(37);
        let mut logits = Tensor::uniform(&[2, 4], -1.0, 1.0, &mut rng);
        let labels = vec![1usize, 3usize];
        let out = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for idx in 0..8 {
            let orig = logits.data()[idx];
            logits.data_mut()[idx] = orig + eps;
            let up: f64 = softmax_cross_entropy(&logits, &labels)
                .per_example_loss
                .iter()
                .sum();
            logits.data_mut()[idx] = orig - eps;
            let dn: f64 = softmax_cross_entropy(&logits, &labels)
                .per_example_loss
                .iter()
                .sum();
            logits.data_mut()[idx] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            let an = f64::from(out.grad_logits.data()[idx]);
            assert!(
                (fd - an).abs() < 1e-3,
                "grad mismatch at {idx}: {fd} vs {an}"
            );
        }
    }

    #[test]
    fn softmax_loss_is_log_classes_for_uniform_logits() {
        let logits = Tensor::zeros(&[1, 10]);
        let out = softmax_cross_entropy(&logits, &[4]);
        assert!((out.mean_loss - (10.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 5.0, -2.0, 3.0], &[2, 3]);
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = Tensor::from_vec(vec![101.0, 102.0, 103.0], &[1, 3]);
        let ga = softmax_cross_entropy(&a, &[0]);
        let gb = softmax_cross_entropy(&b, &[0]);
        assert!((ga.mean_loss - gb.mean_loss).abs() < 1e-5);
        assert!(ga.grad_logits.max_abs_diff(&gb.grad_logits) < 1e-5);
    }

    /// The lane-parallel norm is exact on small integers and agrees with a
    /// sequential `f64` sum to rounding at every length around the lane
    /// width.
    #[test]
    fn sq_norm_matches_sequential_sum() {
        assert_eq!(sq_norm(&[]), 0.0);
        assert_eq!(sq_norm(&[3.0, 4.0]), 25.0);
        let mut rng = DivaRng::seed_from_u64(38);
        for len in [1usize, 15, 16, 17, 33, 1000] {
            let x: Vec<f32> = (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let seq: f64 = x.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
            assert!((sq_norm(&x) - seq).abs() <= 1e-12 * seq, "len {len}");
        }
    }

    /// The column-split GEMV is bitwise equal to sequential `add_scaled`
    /// calls in row order, for strided rows, ragged column blocks and any
    /// worker count.
    #[test]
    fn weighted_row_sum_is_bitwise_sequential_add_scaled() {
        let mut rng = DivaRng::seed_from_u64(39);
        let (b, width, stride) = (7usize, 2 * ROW_SUM_BLOCK + 37, 2 * ROW_SUM_BLOCK + 50);
        let rows: Vec<f32> = (0..b * stride).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let weights: Vec<f32> = (0..b).map(|i| 1.0 / (1.0 + i as f32)).collect();
        let mut oracle = Tensor::zeros(&[width]);
        for (i, &w) in weights.iter().enumerate() {
            let row = Tensor::from_vec(rows[i * stride..i * stride + width].to_vec(), &[width]);
            add_scaled(&mut oracle, &row, w);
        }
        for threads in [1usize, 2, 5] {
            let mut out = vec![0.0f32; width];
            crate::Backend::with_threads(threads)
                .install(|| weighted_row_sum(&rows, stride, &weights, &mut out));
            assert_eq!(out, oracle.data(), "threads={threads}");
        }
    }
}

//! Convolution lowered to GEMM via `im2col`, exactly the transformation the
//! paper assumes when it states that "both forward and backpropagation of
//! SGD can all be permuted to GEMM for representative DNN layers"
//! (Section II-D, citing cuDNN's `im2col`).
//!
//! Layouts: activations are NCHW, weights are `(C_out, C_in, R, S)` where
//! `R`/`S` are the filter height/width, matching the paper's Figure 6
//! nomenclature.
//!
//! Two tiers of API live here:
//!
//! * The free functions ([`conv2d`], [`conv2d_backward_weight`],
//!   [`conv2d_backward_data`]) lower their input with `im2col` on every
//!   call. They are the naive reference path — simple, stateless, and the
//!   baseline the fused path is parity-tested against.
//! * [`PatchBuffer`] is the reuse-aware path DiVa's dataflow motivates:
//!   `im2col` runs **once per batch**, and every subsequent GEMM — the
//!   forward, the per-batch weight gradient, and all `B` per-example
//!   weight gradients of DP-SGD — executes as a strided panel over that one
//!   buffer, with the packed-B panels cached across DP-SGD(R)'s two
//!   backward passes (see [`crate::PackCache`]).

use crate::gemm::{blocked_kernel, gemm_packed_window, gemm_reference, MatRef, PackCache, PackedB};
use crate::matmul::{matmul, matmul_nt, matmul_tn};
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution: channel counts, filter size, stride,
/// padding and the input spatial extent.
///
/// # Example
///
/// ```
/// use diva_tensor::Conv2dGeom;
/// let g = Conv2dGeom::new(3, 16, 3, 1, 1, 32, 32);
/// assert_eq!(g.out_hw(), (32, 32));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Conv2dGeom {
    /// Input channels (`C_in`).
    pub cin: usize,
    /// Output channels (`C_out`).
    pub cout: usize,
    /// Filter side (square filters: `R == S == k`).
    pub k: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
}

impl Conv2dGeom {
    /// Creates a convolution geometry.
    ///
    /// # Panics
    ///
    /// Panics if the output would be empty (filter larger than the padded
    /// input) or if `stride == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
        in_h: usize,
        in_w: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        let g = Self {
            cin,
            cout,
            k,
            stride,
            pad,
            in_h,
            in_w,
        };
        let (p, q) = g.out_hw();
        assert!(
            p > 0 && q > 0,
            "convolution produces empty output: {k}x{k} filter on {in_h}x{in_w} input with pad {pad}"
        );
        g
    }

    /// The output spatial extent `(P, Q)`.
    pub fn out_hw(&self) -> (usize, usize) {
        let p = (self.in_h + 2 * self.pad).saturating_sub(self.k) / self.stride + 1;
        let q = (self.in_w + 2 * self.pad).saturating_sub(self.k) / self.stride + 1;
        (p, q)
    }

    /// The number of weight elements `C_out * C_in * R * S`.
    pub fn weight_len(&self) -> usize {
        self.cout * self.cin * self.k * self.k
    }

    /// The patch length `C_in * R * S` (the K dimension of the forward GEMM).
    pub fn patch_len(&self) -> usize {
        self.cin * self.k * self.k
    }
}

/// Unfolds an NCHW input batch into the patch matrix of shape
/// `(N * P * Q, C_in * R * S)`.
///
/// Row `n*P*Q + p*Q + q` holds the receptive field of output position
/// `(p, q)` for example `n`; out-of-bounds positions read as zero (padding).
///
/// # Panics
///
/// Panics if `input` is not rank 4 or its channel/spatial dims disagree with
/// `geom`.
pub fn im2col(input: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let dims = input.shape().dims();
    assert_eq!(dims.len(), 4, "im2col expects NCHW, got {}", input.shape());
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(
        c, geom.cin,
        "channel mismatch: input {c}, geom {}",
        geom.cin
    );
    assert_eq!(
        h, geom.in_h,
        "height mismatch: input {h}, geom {}",
        geom.in_h
    );
    assert_eq!(
        w, geom.in_w,
        "width mismatch: input {w}, geom {}",
        geom.in_w
    );

    let (p, q) = geom.out_hw();
    let patch = geom.patch_len();
    let mut out = Tensor::zeros(&[n * p * q, patch]);
    let iv = input.data();
    let ov = out.data_mut();
    let k = geom.k;
    for ni in 0..n {
        for pi in 0..p {
            for qi in 0..q {
                let row = (ni * p + pi) * q + qi;
                let base = row * patch;
                for ci in 0..c {
                    for ki in 0..k {
                        let ih = (pi * geom.stride + ki) as isize - geom.pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kj in 0..k {
                            let iw = (qi * geom.stride + kj) as isize - geom.pad as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            let src = ((ni * c + ci) * h + ih as usize) * w + iw as usize;
                            let dst = base + (ci * k + ki) * k + kj;
                            ov[dst] = iv[src];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Folds a patch matrix of shape `(N * P * Q, C_in * R * S)` back into an
/// NCHW tensor, *summing* overlapping contributions.
///
/// `col2im` is the adjoint of [`im2col`]: for all `x`, `y` it holds that
/// `⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩`, which is exactly what backpropagation
/// through the unfold requires.
///
/// # Panics
///
/// Panics if `cols` does not have the shape implied by `geom` and `n`.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeom, n: usize) -> Tensor {
    let (p, q) = geom.out_hw();
    let patch = geom.patch_len();
    let (rows, cols_w) = cols.dims2();
    assert_eq!(rows, n * p * q, "col2im row count mismatch");
    assert_eq!(cols_w, patch, "col2im patch length mismatch");

    let (c, h, w) = (geom.cin, geom.in_h, geom.in_w);
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let ov = out.data_mut();
    let cv = cols.data();
    let k = geom.k;
    for ni in 0..n {
        for pi in 0..p {
            for qi in 0..q {
                let row = (ni * p + pi) * q + qi;
                let base = row * patch;
                for ci in 0..c {
                    for ki in 0..k {
                        let ih = (pi * geom.stride + ki) as isize - geom.pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kj in 0..k {
                            let iw = (qi * geom.stride + kj) as isize - geom.pad as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            let dst = ((ni * c + ci) * h + ih as usize) * w + iw as usize;
                            let src = base + (ci * k + ki) * k + kj;
                            ov[dst] += cv[src];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Forward convolution: input `(N, C_in, H, W)`, weight `(C_out, C_in, R, S)`,
/// output `(N, C_out, P, Q)`.
///
/// Internally lowers to the forward GEMM of the paper's Figure 6:
/// `(M, K, N) = (B·P·Q, C_in·R·S, C_out)`.
///
/// # Panics
///
/// Panics on any layout mismatch with `geom`.
pub fn conv2d(input: &Tensor, weight: &Tensor, geom: &Conv2dGeom) -> Tensor {
    PatchBuffer::lower(input, geom).forward(weight)
}

/// Backpropagates a convolution to its input: given `G(Y)` of shape
/// `(N, C_out, P, Q)`, returns `G(X)` of shape `(N, C_in, H, W)`.
///
/// # Panics
///
/// Panics on layout mismatch.
pub fn conv2d_backward_data(grad_out: &Tensor, weight: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let n = grad_out.shape().dim(0);
    let gy2d = nchw_to_rows(grad_out, geom); // (N*P*Q, Cout)
    let w2d = weight.clone().reshape(&[geom.cout, geom.patch_len()]);
    let dpatches = matmul(&gy2d, &w2d); // (N*P*Q, Cin*R*S)
    col2im(&dpatches, geom, n)
}

/// [`conv2d_backward_data`] with the packed filter matrix cached in `pack`.
///
/// The data-gradient GEMM's B operand is the `(C_out, C_in·R·S)` filter
/// matrix, which is identical in both of DP-SGD(R)'s backward passes (the
/// weights only change at the optimizer update). Passing the same
/// [`PackCache`] to both passes packs it once; the cache revalidates a
/// content token of the weights on every use, so reuse across an optimizer
/// update fails loudly instead of silently computing against stale
/// weights. Bit-identical to [`conv2d_backward_data`] on an equivalent
/// `gy_rows` (`nchw_to_rows` of the NCHW gradient): the routing decision
/// and the panel decomposition are the same, only the (exact-copy) packing
/// is skipped on reuse.
///
/// The gradient comes in pre-flattened with [`nchw_to_rows`] because the
/// caller (the conv layer's backward) already flattens once per pass for
/// the weight-gradient GEMMs — no second NCHW-to-rows transpose.
///
/// # Panics
///
/// Panics on layout mismatch, or if `pack` was previously used with a
/// differently-shaped operand.
pub fn conv2d_backward_data_from_rows(
    gy_rows: &Tensor,
    weight: &Tensor,
    geom: &Conv2dGeom,
    n: usize,
    pack: &PackCache,
) -> Tensor {
    assert_eq!(
        weight.len(),
        geom.weight_len(),
        "weight has {} elements, geometry implies {}",
        weight.len(),
        geom.weight_len()
    );
    let (rows, cout) = gy_rows.dims2();
    let (p, q) = geom.out_hw();
    assert_eq!(rows, n * p * q, "gradient row-count mismatch");
    assert_eq!(cout, geom.cout, "gradient channel mismatch");
    let patch = geom.patch_len();
    let mut dpatches = Tensor::zeros(&[rows, patch]);
    let a = MatRef::row_major(gy_rows.data(), cout);
    if let Some(kernel) = blocked_kernel(rows, cout, patch) {
        // The weights can change between a forward and a later backward
        // (optimizer updates); the content token makes such stale-cache
        // reuse fail loudly instead of silently using pre-update weights.
        let token = crate::gemm::content_token(weight.data());
        let pb = pack.get_or_pack(cout, patch, token, || {
            PackedB::pack_segmented(MatRef::row_major(weight.data(), patch), cout, patch, cout)
        });
        gemm_packed_window(kernel, rows, a, pb, 0, cout, dpatches.data_mut());
    } else {
        let b = MatRef::row_major(weight.data(), patch);
        gemm_reference(rows, cout, patch, a, b, dpatches.data_mut());
    }
    col2im(&dpatches, geom, n)
}

/// Backpropagates a convolution to its weights: given the layer input and
/// `G(Y)`, returns the *per-batch* `G(W)` of shape `(C_out, C_in, R, S)`.
///
/// This is the per-batch weight-gradient GEMM of the paper's Figure 6:
/// `(M, K, N) = (C_in·R·S, B·P·Q, C_out)`; the reduction over the mini-batch
/// happens inside the K dimension.
///
/// # Panics
///
/// Panics on layout mismatch.
pub fn conv2d_backward_weight(input: &Tensor, grad_out: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let patches = im2col(input, geom); // (N*P*Q, Cin*R*S)
    let gy2d = nchw_to_rows(grad_out, geom); // (N*P*Q, Cout)
                                             // G(W)^T with shape (Cin*R*S, Cout) = patches^T x gy2d, then transpose.
    let gw_t = matmul_tn(&patches, &gy2d);
    gw_t.transpose()
        .reshape(&[geom.cout, geom.cin, geom.k, geom.k])
}

/// The reuse-aware convolution lowering: `im2col` computed **once** per
/// batch, shared by the forward GEMM and every backward weight-gradient
/// GEMM, with the packed-B panels of the weight-gradient GEMMs cached for
/// reuse across DP-SGD(R)'s two backward passes.
///
/// Rows `i·P·Q .. (i+1)·P·Q` of the buffer are example `i`'s receptive
/// fields, so a per-example weight gradient is a GEMM over a contiguous
/// row-window of the shared buffer — no per-example `im2col`, no
/// per-example copy. The weight-gradient GEMM is formulated as
/// `G(W) = G(Y)ᵀ × patches` (B = the patch buffer), which makes the packed
/// operand the *invariant* one: packed once, it serves all `B` per-example
/// GEMMs of the `NormOnly`/`PerExample` pass *and* the per-batch GEMM of
/// the reweighted second pass.
///
/// Numerics: for every **per-example** window the GEMM routing, the
/// K-panel boundaries and the per-element accumulation order match the
/// naive per-example [`conv2d_backward_weight`] path (multiplication is
/// commutative under IEEE-754 even through FMA), so per-example gradients
/// and norms are bit-identical to the per-example `im2col` path — the
/// contract `tests/conv_fused_parity.rs` pins in the `diva-nn` crate. The
/// **per-batch** window is the exception: its packed panels split at every
/// example boundary while the naive batch GEMM splits only at multiples of
/// the K panel length, so [`PatchBuffer::backward_weight_batch`] matches
/// the naive batch path to reassociation tolerance (~1e-7 relative), not
/// bit-for-bit.
#[derive(Clone, Debug)]
pub struct PatchBuffer {
    patches: Tensor,
    geom: Conv2dGeom,
    n: usize,
    pack: PackCache,
}

impl PatchBuffer {
    /// Lowers an NCHW batch with [`im2col`] once.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match `geom` (see [`im2col`]).
    pub fn lower(input: &Tensor, geom: &Conv2dGeom) -> Self {
        let n = input.shape().dim(0);
        Self {
            patches: im2col(input, geom),
            geom: *geom,
            n,
            pack: PackCache::new(),
        }
    }

    /// The underlying `(N·P·Q, C_in·R·S)` patch matrix.
    pub fn patches(&self) -> &Tensor {
        &self.patches
    }

    /// The batch size this buffer was lowered from.
    pub fn batch(&self) -> usize {
        self.n
    }

    /// The geometry this buffer was lowered under.
    pub fn geom(&self) -> &Conv2dGeom {
        &self.geom
    }

    /// Patch rows per example, `P·Q`.
    fn rows_per_example(&self) -> usize {
        let (p, q) = self.geom.out_hw();
        p * q
    }

    /// Forward convolution from the lowered patches: identical arithmetic
    /// to [`conv2d`], minus the re-lowering.
    ///
    /// # Panics
    ///
    /// Panics if `weight` does not match the geometry.
    pub fn forward(&self, weight: &Tensor) -> Tensor {
        assert_eq!(
            weight.len(),
            self.geom.weight_len(),
            "weight has {} elements, geometry implies {}",
            weight.len(),
            self.geom.weight_len()
        );
        let (p, q) = self.geom.out_hw();
        let cout = self.geom.cout;
        let w2d = weight.clone().reshape(&[cout, self.geom.patch_len()]);
        let y = matmul_nt(&self.patches, &w2d); // (N*P*Q, Cout)
                                                // Reorder (N*P*Q, Cout) -> (N, Cout, P, Q).
        let mut out = Tensor::zeros(&[self.n, cout, p, q]);
        let yv = y.data();
        let ov = out.data_mut();
        for ni in 0..self.n {
            for pi in 0..p {
                for qi in 0..q {
                    let row = (ni * p + pi) * q + qi;
                    for co in 0..cout {
                        ov[((ni * cout + co) * p + pi) * q + qi] = yv[row * cout + co];
                    }
                }
            }
        }
        out
    }

    /// The per-batch weight gradient `(C_out, C_in, R, S)` from the shared
    /// buffer: the `(C_out, B·P·Q, C_in·R·S)` GEMM of the reweighted second
    /// pass, reusing the packed patch panels if a per-example pass already
    /// paid for them.
    ///
    /// # Panics
    ///
    /// Panics if `gy_rows` is not the `(N·P·Q, C_out)` row layout of
    /// [`nchw_to_rows`].
    pub fn backward_weight_batch(&self, gy_rows: &Tensor) -> Tensor {
        let mut gw = Tensor::zeros(&[self.geom.cout, self.geom.cin, self.geom.k, self.geom.k]);
        self.weight_grad_window(gy_rows, 0, self.n * self.rows_per_example(), gw.data_mut());
        gw
    }

    /// The weight gradient of example `i`, `(C_out, C_in, R, S)` row-major,
    /// written over `out` as a strided GEMM panel of the shared buffer —
    /// Algorithm 1's per-example `(C_in·R·S, P·Q, C_out)` derivation without
    /// the per-example `im2col`. Every element of `out` is overwritten, so
    /// it may be a recycled per-example gradient row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= batch`, `gy_rows` has the wrong layout, or `out` is
    /// not [`Conv2dGeom::weight_len`] long.
    pub fn backward_weight_example(&self, gy_rows: &Tensor, i: usize, out: &mut [f32]) {
        assert!(i < self.n, "example {i} out of bounds for batch {}", self.n);
        let pq = self.rows_per_example();
        self.weight_grad_window(gy_rows, i * pq, (i + 1) * pq, out);
    }

    /// Shared weight-gradient core over patch-buffer rows `lo..hi`:
    /// `G(W)[co][d] = Σ_r gy[r][co] · patches[r][d]` with the patch buffer
    /// as the (packed, cached) B operand, written over `gw`.
    fn weight_grad_window(&self, gy_rows: &Tensor, lo: usize, hi: usize, gw: &mut [f32]) {
        let (rows, cout) = gy_rows.dims2();
        assert_eq!(cout, self.geom.cout, "gradient channel mismatch");
        assert_eq!(
            rows,
            self.n * self.rows_per_example(),
            "gradient row-count mismatch"
        );
        let patch = self.geom.patch_len();
        assert_eq!(
            gw.len(),
            self.geom.weight_len(),
            "weight-gradient output length mismatch"
        );
        // Both kernels accumulate into their output.
        gw.fill(0.0);
        let (m, k) = (cout, hi - lo);
        let a = MatRef::transposed(&gy_rows.data()[lo * cout..hi * cout], cout);
        if let Some(kernel) = blocked_kernel(m, k, patch) {
            let total = rows;
            let pq = self.rows_per_example();
            // Token 0: the patch buffer is owned by `self` and immutable
            // after lowering, so it cannot go stale.
            let pb = self.pack.get_or_pack(total, patch, 0, || {
                PackedB::pack_segmented(
                    MatRef::row_major(self.patches.data(), patch),
                    total,
                    patch,
                    pq,
                )
            });
            gemm_packed_window(kernel, m, a, pb, lo, hi, gw);
        } else {
            let b = MatRef::row_major(&self.patches.data()[lo * patch..hi * patch], patch);
            gemm_reference(m, k, patch, a, b, gw);
        }
    }
}

/// Flattens `(N, C_out, P, Q)` into GEMM row-major order `(N*P*Q, C_out)` —
/// the row layout [`PatchBuffer`]'s weight-gradient GEMMs consume. Row
/// `n·P·Q + p·Q + q` holds the `C_out` output-gradient channels of position
/// `(p, q)` in example `n`, matching [`im2col`]'s row indexing so that a
/// contiguous row-window selects one example in both operands.
///
/// # Panics
///
/// Panics if `t` is not `(N, C_out, P, Q)` for `geom`.
pub fn nchw_to_rows(t: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let dims = t.shape().dims();
    assert_eq!(dims.len(), 4, "expected NCHW, got {}", t.shape());
    let (n, c, p, q) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, geom.cout, "channel mismatch in gradient tensor");
    let mut out = Tensor::zeros(&[n * p * q, c]);
    let tv = t.data();
    let ov = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for pi in 0..p {
                for qi in 0..q {
                    let row = (ni * p + pi) * q + qi;
                    ov[row * c + ci] = tv[((ni * c + ci) * p + pi) * q + qi];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DivaRng;

    /// Direct (quadruple-loop) convolution used as the test oracle.
    fn conv2d_reference(input: &Tensor, weight: &Tensor, geom: &Conv2dGeom) -> Tensor {
        let n = input.shape().dim(0);
        let (p, q) = geom.out_hw();
        let mut out = Tensor::zeros(&[n, geom.cout, p, q]);
        for ni in 0..n {
            for co in 0..geom.cout {
                for pi in 0..p {
                    for qi in 0..q {
                        let mut acc = 0.0;
                        for ci in 0..geom.cin {
                            for ki in 0..geom.k {
                                for kj in 0..geom.k {
                                    let ih = (pi * geom.stride + ki) as isize - geom.pad as isize;
                                    let iw = (qi * geom.stride + kj) as isize - geom.pad as isize;
                                    if ih < 0
                                        || iw < 0
                                        || ih >= geom.in_h as isize
                                        || iw >= geom.in_w as isize
                                    {
                                        continue;
                                    }
                                    acc += input[&[ni, ci, ih as usize, iw as usize]]
                                        * weight[&[co, ci, ki, kj]];
                                }
                            }
                        }
                        out[&[ni, co, pi, qi]] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn gemm_lowering_matches_direct_convolution() {
        let mut rng = DivaRng::seed_from_u64(21);
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let geom = Conv2dGeom::new(3, 4, 3, stride, pad, 8, 8);
            let x = Tensor::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
            let w = Tensor::uniform(&[4, 3, 3, 3], -1.0, 1.0, &mut rng);
            let fast = conv2d(&x, &w, &geom);
            let slow = conv2d_reference(&x, &w, &geom);
            assert!(
                fast.max_abs_diff(&slow) < 1e-4,
                "mismatch at stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        let mut rng = DivaRng::seed_from_u64(23);
        let geom = Conv2dGeom::new(2, 3, 3, 2, 1, 7, 7);
        let x = Tensor::uniform(&[2, 2, 7, 7], -1.0, 1.0, &mut rng);
        let unfolded = im2col(&x, &geom);
        let y = Tensor::uniform(unfolded.shape().dims(), -1.0, 1.0, &mut rng);
        let folded = col2im(&y, &geom, 2);
        let lhs: f64 = unfolded
            .data()
            .iter()
            .zip(y.data())
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(folded.data())
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3,
            "adjointness violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = DivaRng::seed_from_u64(29);
        let geom = Conv2dGeom::new(2, 2, 3, 1, 1, 5, 5);
        let x = Tensor::uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let mut w = Tensor::uniform(&[2, 2, 3, 3], -0.5, 0.5, &mut rng);
        // Loss = sum(conv(x, w)); dL/dY = ones.
        let (p, q) = geom.out_hw();
        let gy = Tensor::full(&[1, 2, p, q], 1.0);
        let gw = conv2d_backward_weight(&x, &gy, &geom);
        let eps = 1e-3;
        for idx in [0usize, 7, 17, 35] {
            let orig = w.data()[idx];
            w.data_mut()[idx] = orig + eps;
            let up = conv2d(&x, &w, &geom).sum();
            w.data_mut()[idx] = orig - eps;
            let dn = conv2d(&x, &w, &geom).sum();
            w.data_mut()[idx] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            let an = f64::from(gw.data()[idx]);
            assert!(
                (fd - an).abs() < 1e-2,
                "weight grad mismatch at {idx}: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn data_gradient_matches_finite_difference() {
        let mut rng = DivaRng::seed_from_u64(31);
        let geom = Conv2dGeom::new(2, 3, 3, 2, 1, 6, 6);
        let mut x = Tensor::uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut rng);
        let w = Tensor::uniform(&[3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let (p, q) = geom.out_hw();
        let gy = Tensor::full(&[1, 3, p, q], 1.0);
        let gx = conv2d_backward_data(&gy, &w, &geom);
        let eps = 1e-3;
        for idx in [0usize, 13, 40, 71] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let up = conv2d(&x, &w, &geom).sum();
            x.data_mut()[idx] = orig - eps;
            let dn = conv2d(&x, &w, &geom).sum();
            x.data_mut()[idx] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            let an = f64::from(gx.data()[idx]);
            assert!(
                (fd - an).abs() < 1e-2,
                "data grad mismatch at {idx}: fd={fd} analytic={an}"
            );
        }
    }

    /// The packed/cached data-gradient path must match the plain
    /// `conv2d_backward_data` (which routes through `matmul`) on both the
    /// blocked-eligible and the reference-kernel shapes — an independent
    /// oracle for the call-site wiring of `gemm_packed_window`, including
    /// across a pack-cache reuse.
    #[test]
    fn data_gradient_from_rows_matches_reference_path() {
        let mut rng = DivaRng::seed_from_u64(37);
        for (geom, n) in [
            // rows=1152, k=cout=16, n=patch=36: blocked/packed route.
            (Conv2dGeom::new(4, 16, 3, 1, 1, 12, 12), 8usize),
            // Tiny: reference-kernel route.
            (Conv2dGeom::new(2, 3, 3, 2, 1, 6, 6), 2),
        ] {
            let (p, q) = geom.out_hw();
            let gy = Tensor::uniform(&[n, geom.cout, p, q], -1.0, 1.0, &mut rng);
            let w = Tensor::uniform(&[geom.cout, geom.cin, geom.k, geom.k], -0.5, 0.5, &mut rng);
            let reference = conv2d_backward_data(&gy, &w, &geom);
            let rows = nchw_to_rows(&gy, &geom);
            let pack = PackCache::new();
            let first = conv2d_backward_data_from_rows(&rows, &w, &geom, n, &pack);
            assert_eq!(
                first.data(),
                reference.data(),
                "cold pack diverged: {geom:?}"
            );
            let second = conv2d_backward_data_from_rows(&rows, &w, &geom, n, &pack);
            assert_eq!(
                second.data(),
                reference.data(),
                "warm pack diverged: {geom:?}"
            );
        }
    }

    #[test]
    fn geometry_reports_expected_output_size() {
        // Same-padding 3x3 stride 1 keeps spatial dims.
        assert_eq!(Conv2dGeom::new(3, 8, 3, 1, 1, 32, 32).out_hw(), (32, 32));
        // Stride-2 halves.
        assert_eq!(Conv2dGeom::new(3, 8, 3, 2, 1, 32, 32).out_hw(), (16, 16));
        // 1x1 conv.
        assert_eq!(Conv2dGeom::new(16, 32, 1, 1, 0, 8, 8).out_hw(), (8, 8));
    }
}

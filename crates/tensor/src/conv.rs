//! Convolution lowered to GEMM via `im2col`, exactly the transformation the
//! paper assumes when it states that "both forward and backpropagation of
//! SGD can all be permuted to GEMM for representative DNN layers"
//! (Section II-D, citing cuDNN's `im2col`).
//!
//! Layouts: activations and their gradients are NCHW, weights are
//! `(C_out, C_in, R, S)` where `R`/`S` are the filter height/width,
//! matching the paper's Figure 6 nomenclature.
//!
//! Two tiers of API live here:
//!
//! * [`PatchBuffer`] is the reuse-aware path DiVa's dataflow motivates:
//!   `im2col` runs **once per batch**, and every subsequent GEMM — the
//!   forward, the per-batch weight gradient, and all `B` per-example
//!   weight gradients of DP-SGD — reads that one buffer in place, example
//!   by example. [`conv2d`] and [`conv2d_backward_data`] are the stateless
//!   entry points to the same per-example GEMMs.
//! * [`conv2d_backward_weight`], [`nchw_to_rows`] and [`col2im`] are the
//!   naive whole-batch lowering — a rows-layout gradient, one big GEMM, a
//!   patch matrix folded back — kept as the baselines and test oracles the
//!   fused path is pinned against.
//!
//! # NCHW in place, one example per task
//!
//! No convolution GEMM writes a whole-batch intermediate. Each runs one
//! example per pool task, through a thread-local tile that stays in L2:
//!
//! * forward: `patches_i × Wᵀ` into a `(P·Q, C_out)` tile, which the same
//!   task reorders into the example's NCHW image, adding the bias;
//! * data gradient: `Wᵀ × G(Y)_i` into a `(C_in·R·S, P·Q)` tile, which the
//!   task folds into `G(X)_i` as [`col2im`] would, reading each tile row
//!   contiguously (on the reference route, the `(P·Q, C_in·R·S)` product
//!   `G(Y)_iᵀ × W`);
//! * weight gradients: `G(Y)_i`'s `(C_out, P·Q)` NCHW slice is the A
//!   operand as it stands, and example `i`'s patch rows the B operand. The
//!   per-batch GEMM hands the blocked driver each example's K panels in
//!   turn, so every panel lies within one example, and the driver packs
//!   each B panel as it reaches it: no packed copy of the patch buffer is
//!   kept.
//!
//! Every element comes out with the bits of the whole-batch GEMM. The route
//! (blocked kernel or the scalar reference loop's arithmetic, see
//! `gemm::Route`) is decided once, from the whole-batch shape, and
//! replayed per example, so each element keeps its
//! kernel, its K panels and its FMA sequence. The blocked data gradient
//! computes the transpose of the batch product `G(Y) × W`; a fused
//! multiply-add rounds only its exact result, so it is commutative in its
//! two factors and the transpose changes no bit. On the reference route
//! the gradient stays the scalar loop's A operand, so the loop's zero skip
//! tests the same values it always did.
//!
//! The data movement around the GEMMs — [`im2col`], the folds, the forward
//! reorder and [`nchw_to_rows`] — runs on the shared pool, one task per
//! example. Every output element is written by exactly one task, padding
//! included, and a fold adds each element's contributions in the same
//! order as a serial loop, starting from +0.0, so the results are bitwise
//! the same at every thread count. The inner loops visit only the output
//! positions each filter tap lands in bounds for (worked out once per
//! call), instead of bounds-checking every element.

use crate::gemm::{
    gemm_panels, gemm_reference, gemm_serial, panels, with_scratch, MatRef, Panel, Route,
};
use crate::matmul::matmul_tn;
use crate::parallel;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::ops::Range;

thread_local! {
    /// Per-thread GEMM tile of the per-example convolution tasks: one
    /// example's forward output or patch gradient (113 KB for a 16→32
    /// channel 3×3 convolution on 14×14), reused across calls.
    static TILE_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Per filter tap, the output rows and the output columns at which it
/// lands inside the input ([`Conv2dGeom::taps_in_bounds`]).
type Taps = (Vec<Range<usize>>, Vec<Range<usize>>);

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

    /// For each filter tap `t < k`, the output rows and the output columns
    /// at which it lands inside the input (`o·stride + t − pad ∈ [0, len)`
    /// along each axis); possibly empty.
    fn taps_in_bounds(&self) -> Taps {
        let (p, q) = self.out_hw();
        let along = |len: usize, outputs: usize| -> Vec<Range<usize>> {
            (0..self.k)
                .map(|t| {
                    let lo = self.pad.saturating_sub(t).div_ceil(self.stride);
                    let hi = (len + self.pad)
                        .saturating_sub(t)
                        .div_ceil(self.stride)
                        .min(outputs);
                    lo.min(hi)..hi
                })
                .collect()
        };
        (along(self.in_h, p), along(self.in_w, q))
    }
}

/// Output positions per block of the per-example `(C, P·Q)` ↔ `(P·Q, C)`
/// transposes: both sides of a block stay L1-resident.
const BLOCK: usize = 64;

/// Checks that `t` is an `(N, C_out, P, Q)` output gradient under `geom`
/// and returns `N`.
fn grad_batch(t: &Tensor, geom: &Conv2dGeom) -> usize {
    let dims = t.shape().dims();
    let (p, q) = geom.out_hw();
    assert!(
        dims.len() == 4 && dims[1..] == [geom.cout, p, q],
        "expected an (N, {}, {p}, {q}) gradient, got {}",
        geom.cout,
        t.shape()
    );
    dims[0]
}

/// Folds one example's patch gradient into `image`, its `(C_in, H, W)`
/// block, overwriting it: `src.at(s, col)` is patch column `col` of output
/// position `s = pi·Q + qi`. `taps` is [`Conv2dGeom::taps_in_bounds`].
///
/// An input element takes its contributions in position order `(pi, qi)`,
/// starting from +0.0, as in a serial loop over the patch rows: `pi` is
/// the outer loop, a given `pi` reaches the element through one `ki` only,
/// and among its taps `kj` falls as `qi` rises — so walking `kj` downwards
/// keeps `qi` ascending.
#[inline(always)]
fn fold(geom: &Conv2dGeom, taps: &Taps, src: MatRef, image: &mut [f32]) {
    let (p, q) = geom.out_hw();
    let (h, w, k, stride, pad) = (geom.in_h, geom.in_w, geom.k, geom.stride, geom.pad);
    let (in_rows, in_cols) = taps;
    image.fill(0.0);
    for pi in 0..p {
        for (ci, plane) in image.chunks_exact_mut(h * w).enumerate() {
            for ki in (0..k).filter(|&ki| in_rows[ki].contains(&pi)) {
                let line = &mut plane[(pi * stride + ki - pad) * w..][..w];
                for (kj, cols) in in_cols.iter().enumerate().rev() {
                    let col = (ci * k + ki) * k + kj;
                    match src.col_run(pi * q, col) {
                        // Unit stride on both sides (a tile): one run.
                        Some(run) if stride == 1 => {
                            let first = cols.start + kj - pad;
                            for (o, &v) in line[first..].iter_mut().zip(&run[cols.clone()]) {
                                *o += v;
                            }
                        }
                        _ => {
                            for qi in cols.clone() {
                                line[qi * stride + kj - pad] += src.at(pi * q + qi, col);
                            }
                        }
                    }
                }
            }
        }
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
    let (k, stride, pad) = (geom.k, geom.stride, geom.pad);
    let (in_rows, in_cols) = geom.taps_in_bounds();
    let mut out = Tensor::for_overwrite(&[n * p * q, patch]);
    let iv = input.data();
    // One task per example. Each output row `pi` of it (Q patch rows) is
    // zeroed, then every in-bounds tap `(ci, ki, kj)` copies its run of
    // input columns down one patch column.
    parallel::par_chunks_mut(out.data_mut(), (p * q * patch).max(1), |ni, rows| {
        let image = &iv[ni * c * h * w..(ni + 1) * c * h * w];
        for (pi, block) in rows.chunks_exact_mut(q * patch).enumerate() {
            block.fill(0.0);
            for (ci, plane) in image.chunks_exact(h * w).enumerate() {
                for ki in (0..k).filter(|&ki| in_rows[ki].contains(&pi)) {
                    let line = &plane[(pi * stride + ki - pad) * w..][..w];
                    for (kj, cols) in in_cols.iter().enumerate() {
                        let col = (ci * k + ki) * k + kj;
                        for qi in cols.clone() {
                            block[qi * patch + col] = line[qi * stride + kj - pad];
                        }
                    }
                }
            }
        }
    });
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

    let image_len = geom.cin * geom.in_h * geom.in_w;
    let taps = geom.taps_in_bounds();
    let mut out = Tensor::for_overwrite(&[n, geom.cin, geom.in_h, geom.in_w]);
    let cv = cols.data();
    // One task per example image.
    parallel::par_chunks_mut(out.data_mut(), image_len.max(1), |ni, image| {
        let rows = &cv[ni * p * q * patch..(ni + 1) * p * q * patch];
        fold(geom, &taps, MatRef::row_major(rows, patch), image);
    });
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
    PatchBuffer::lower(input, geom).forward(weight, None)
}

/// Backpropagates a convolution to its input: given `G(Y)` of shape
/// `(N, C_out, P, Q)`, returns `G(X)` of shape `(N, C_in, H, W)`.
///
/// One pool task per example: the example's patch gradient goes into a
/// thread-local tile that the same task folds into `G(X)_i` (see the module
/// docs) — on the blocked route `Wᵀ × G(Y)_i`, `(C_in·R·S, P·Q)`, on the
/// reference route `G(Y)_iᵀ × W`. The bits are those of the whole-batch
/// lowering, [`col2im`] of the `(N·P·Q, C_out) × (C_out, C_in·R·S)` GEMM of
/// [`nchw_to_rows`]`(G(Y))` and the filter matrix.
///
/// # Panics
///
/// Panics on layout mismatch.
pub fn conv2d_backward_data(grad_out: &Tensor, weight: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let n = grad_batch(grad_out, geom);
    assert_eq!(
        weight.len(),
        geom.weight_len(),
        "weight has {} elements, geometry implies {}",
        weight.len(),
        geom.weight_len()
    );
    let (p, q) = geom.out_hw();
    let (pq, cout, patch) = (p * q, geom.cout, geom.patch_len());
    // The whole-batch GEMM's route, replayed per example. Its B, the filter
    // matrix, is contiguous already, so the tiny-K route needs no copy.
    let blocked = Route::of(n * pq, cout, patch) == Route::Blocked;
    let taps = geom.taps_in_bounds();
    let (gv, wv) = (grad_out.data(), weight.data());
    let mut out = Tensor::for_overwrite(&[n, geom.cin, geom.in_h, geom.in_w]);
    let image_len = geom.cin * geom.in_h * geom.in_w;
    parallel::par_chunks_mut(out.data_mut(), image_len.max(1), |ni, image| {
        let gy = &gv[ni * cout * pq..(ni + 1) * cout * pq];
        with_scratch(&TILE_SCRATCH, patch * pq, |tile| {
            tile.fill(0.0);
            let src = if blocked {
                // The transposed product: a `(C_in·R·S, P·Q)` tile.
                let w_t = MatRef::transposed(wv, patch);
                gemm_serial(patch, cout, pq, w_t, MatRef::row_major(gy, pq), tile);
                MatRef::transposed(tile, pq)
            } else {
                // The gradient stays the scalar loop's A operand, so its
                // zero skip tests the same values: a `(P·Q, C_in·R·S)` tile.
                let gy_rows = MatRef::transposed(gy, pq);
                gemm_reference(pq, cout, patch, gy_rows, MatRef::row_major(wv, patch), tile);
                MatRef::row_major(tile, patch)
            };
            fold(geom, &taps, src, image);
        });
    });
    out
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
/// GEMM of both of DP-SGD(R)'s backward passes.
///
/// Rows `i·P·Q .. (i+1)·P·Q` of the buffer are example `i`'s receptive
/// fields, so a per-example weight gradient is a GEMM over a contiguous
/// row-window of the shared buffer — no per-example `im2col`, no
/// per-example copy. The weight-gradient GEMM is formulated as
/// `G(W) = G(Y) × patches` (A = each example's `(C_out, P·Q)` NCHW slice
/// of the output gradient, B = the example's patch rows); the blocked
/// kernel packs each B panel as it reaches it, so the buffer is the only
/// copy of the patches.
///
/// Numerics: for every **per-example** window the GEMM routing, the
/// K-panel boundaries and the per-element accumulation order match the
/// naive per-example [`conv2d_backward_weight`] path (multiplication is
/// commutative under IEEE-754 even through FMA), so per-example gradients
/// and norms are bit-identical to the per-example `im2col` path — the
/// contract `tests/conv_fused_parity.rs` pins in the `diva-nn` crate. The
/// **per-batch** window is the exception: its panels split at every
/// example boundary while the naive batch GEMM splits only at multiples of
/// the K panel length, so [`PatchBuffer::backward_weight_batch`] matches
/// the naive batch path to reassociation tolerance (~1e-7 relative), not
/// bit-for-bit.
#[derive(Clone, Debug)]
pub struct PatchBuffer {
    patches: Tensor,
    geom: Conv2dGeom,
    n: usize,
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
    /// to [`conv2d`], minus the re-lowering. One pool task per example runs
    /// `patches_i × Wᵀ` into a `(P·Q, C_out)` tile and reorders it into the
    /// example's NCHW image. A `bias` of `(C_out,)` is added in the
    /// reorder's write, one rounding per element, exactly as adding it to
    /// the reordered output would.
    ///
    /// # Panics
    ///
    /// Panics if `weight` or `bias` does not match the geometry.
    pub fn forward(&self, weight: &Tensor, bias: Option<&Tensor>) -> Tensor {
        assert_eq!(
            weight.len(),
            self.geom.weight_len(),
            "weight has {} elements, geometry implies {}",
            weight.len(),
            self.geom.weight_len()
        );
        let (cout, patch) = (self.geom.cout, self.geom.patch_len());
        if let Some(b) = bias {
            assert_eq!(
                b.len(),
                cout,
                "bias has {} elements, C_out is {cout}",
                b.len()
            );
        }
        let pq = self.rows_per_example();
        let wv = weight.data();
        // The whole-batch GEMM's route, replayed per example. The tiny-K
        // route reads B = Wᵀ from a contiguous copy, as `gemm` does.
        let route = Route::of(self.n * pq, patch, cout);
        let w_t = MatRef::transposed(wv, patch);
        let copy;
        let b = if route == Route::TinyK {
            copy = w_t.to_row_major(patch, cout);
            MatRef::row_major(&copy, cout)
        } else {
            w_t
        };
        let (p, q) = self.geom.out_hw();
        let mut out = Tensor::for_overwrite(&[self.n, cout, p, q]);
        let pv = self.patches.data();
        parallel::par_chunks_mut(out.data_mut(), (cout * pq).max(1), |ni, image| {
            let a = MatRef::row_major(&pv[ni * pq * patch..(ni + 1) * pq * patch], patch);
            with_scratch(&TILE_SCRATCH, pq * cout, |tile| {
                tile.fill(0.0);
                if route == Route::Blocked {
                    gemm_serial(pq, patch, cout, a, b, tile);
                } else {
                    gemm_reference(pq, patch, cout, a, b, tile);
                }
                // (P·Q, C_out) -> (C_out, P·Q), in blocks of positions.
                for r0 in (0..pq).step_by(BLOCK) {
                    let r1 = (r0 + BLOCK).min(pq);
                    let rows = &tile[r0 * cout..r1 * cout];
                    for (co, plane) in image.chunks_exact_mut(pq).enumerate() {
                        let outs = plane[r0..r1].iter_mut().zip(rows.chunks_exact(cout));
                        match bias {
                            Some(bias) => {
                                let bc = bias.data()[co];
                                for (o, row) in outs {
                                    *o = row[co] + bc;
                                }
                            }
                            None => {
                                for (o, row) in outs {
                                    *o = row[co];
                                }
                            }
                        }
                    }
                }
            });
        });
        out
    }

    /// The per-batch weight gradient `(C_out, C_in, R, S)` from the shared
    /// buffer and the `(N, C_out, P, Q)` output gradient: the
    /// `(C_out, B·P·Q, C_in·R·S)` GEMM of the reweighted second pass, one
    /// K panel of one example at a time.
    ///
    /// # Panics
    ///
    /// Panics if `grad_out` is not this buffer's `(N, C_out, P, Q)`.
    pub fn backward_weight_batch(&self, grad_out: &Tensor) -> Tensor {
        let mut gw = Tensor::zeros(&[self.geom.cout, self.geom.cin, self.geom.k, self.geom.k]);
        self.weight_grad_window(grad_out, 0..self.n, gw.data_mut());
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
    /// Panics if `i >= batch`, `grad_out` is not this buffer's
    /// `(N, C_out, P, Q)`, or `out` is not [`Conv2dGeom::weight_len`] long.
    pub fn backward_weight_example(&self, grad_out: &Tensor, i: usize, out: &mut [f32]) {
        assert!(i < self.n, "example {i} out of bounds for batch {}", self.n);
        self.weight_grad_window(grad_out, i..i + 1, out);
    }

    /// Shared weight-gradient core over the examples `ex`:
    /// `G(W)[co][d] = Σ_i Σ_s gy_i[co][s] · patches_i[s][d]`, each example's
    /// NCHW gradient slice the A operand and its patch rows the B operand,
    /// written over `gw`.
    fn weight_grad_window(&self, grad_out: &Tensor, ex: Range<usize>, gw: &mut [f32]) {
        assert_eq!(
            grad_batch(grad_out, &self.geom),
            self.n,
            "gradient batch mismatch"
        );
        let (cout, patch) = (self.geom.cout, self.geom.patch_len());
        assert_eq!(
            gw.len(),
            self.geom.weight_len(),
            "weight-gradient output length mismatch"
        );
        let pq = self.rows_per_example();
        let gy = |i: usize| MatRef::row_major(&grad_out.data()[i * cout * pq..][..cout * pq], pq);
        let patches = |i: usize| MatRef::row_major(&self.patches.data()[i * pq * patch..], patch);
        // Both kernels accumulate into their output.
        gw.fill(0.0);
        if Route::of(cout, ex.len() * pq, patch) == Route::Blocked {
            // Each example's own K panels: they break at every example
            // boundary, then every `KC`, and each reads its example's slice.
            let per_example: Vec<Panel> = ex.flat_map(|i| panels(pq, gy(i), patches(i))).collect();
            gemm_panels(cout, patch, &per_example, gw);
        } else {
            // One example at a time: every element still takes its terms
            // in ascending row order.
            for i in ex {
                gemm_reference(cout, pq, patch, gy(i), patches(i), gw);
            }
        }
    }
}

/// Flattens `(N, C_out, P, Q)` into GEMM row-major order `(N*P*Q, C_out)`.
/// Row `n·P·Q + p·Q + q` holds the `C_out` output-gradient channels of
/// position `(p, q)` in example `n`, matching [`im2col`]'s row indexing.
///
/// This is the gradient layout of the naive whole-batch lowering:
/// [`conv2d_backward_weight`] reads it, and `col2im(nchw_to_rows(G(Y)) ×
/// W)` is the data gradient [`conv2d_backward_data`] reproduces bit for
/// bit. The fused paths read NCHW as it stands.
///
/// # Panics
///
/// Panics if `t` is not `(N, C_out, P, Q)` for `geom`.
pub fn nchw_to_rows(t: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let dims = t.shape().dims();
    assert_eq!(dims.len(), 4, "expected NCHW, got {}", t.shape());
    let (n, c, p, q) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, geom.cout, "channel mismatch in gradient tensor");
    let pq = p * q;
    let mut out = Tensor::for_overwrite(&[n * pq, c]);
    let tv = t.data();
    // One task per example: a (C, P·Q) -> (P·Q, C) transpose, in blocks of
    // positions.
    parallel::par_chunks_mut(out.data_mut(), (pq * c).max(1), |ni, rows| {
        let image = &tv[ni * c * pq..(ni + 1) * c * pq];
        for r0 in (0..pq).step_by(BLOCK) {
            let r1 = (r0 + BLOCK).min(pq);
            let block = &mut rows[r0 * c..r1 * c];
            for (ci, plane) in image.chunks_exact(pq).enumerate() {
                for (row, &v) in block.chunks_exact_mut(c).zip(&plane[r0..r1]) {
                    row[ci] = v;
                }
            }
        }
    });
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

    /// The fused data gradient (per-example `Wᵀ × G(Y)_i` tiles folded in
    /// place) must be bitwise the unfused lowering it replaced — `col2im`
    /// of the whole-batch `nchw_to_rows(G(Y)) × W` GEMM — on both routes,
    /// with zeros in the gradient for the reference loop's zero skip.
    #[test]
    fn fused_data_gradient_matches_unfused_lowering() {
        use crate::matmul::matmul;
        let mut rng = DivaRng::seed_from_u64(37);
        for (geom, n) in [
            // rows=1152, k=cout=16, n=patch=36: blocked route.
            (Conv2dGeom::new(4, 16, 3, 1, 1, 12, 12), 8usize),
            // K = C_out = 24 crossing no panel, stride 2: blocked route.
            (Conv2dGeom::new(8, 24, 3, 2, 1, 15, 13), 5),
            // Tiny: reference-kernel route.
            (Conv2dGeom::new(2, 3, 3, 2, 1, 6, 6), 2),
        ] {
            let (p, q) = geom.out_hw();
            let mut gy = Tensor::uniform(&[n, geom.cout, p, q], -1.0, 1.0, &mut rng);
            for v in gy.data_mut().iter_mut().step_by(5) {
                *v = -0.0;
            }
            let w = Tensor::uniform(&[geom.cout, geom.cin, geom.k, geom.k], -0.5, 0.5, &mut rng);
            let w2d = w.clone().reshape(&[geom.cout, geom.patch_len()]);
            let unfused = col2im(&matmul(&nchw_to_rows(&gy, &geom), &w2d), &geom, n);
            let fused = conv2d_backward_data(&gy, &w, &geom);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&fused) == bits(&unfused),
                "fused data gradient diverged: {geom:?}"
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

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
//! * [`ConvInput`] keeps a layer's NCHW input batch for the backward, and
//!   every GEMM that reads its lowered form — the forward, the per-batch
//!   weight gradient, and all `B` per-example weight gradients of DP-SGD —
//!   reads that operand straight from the input, as cuDNN's implicit GEMM
//!   does: the forward while packing it, the weight gradients in place. No
//!   patch matrix is stored. [`conv2d`] and [`conv2d_backward_data`] are
//!   the stateless entry points to the same per-example GEMMs.
//! * [`im2col`], [`conv2d_backward_weight`], [`nchw_to_rows`] and
//!   [`col2im`] are the naive whole-batch lowering — a patch matrix, a
//!   rows-layout gradient, one big GEMM, a patch matrix folded back — kept
//!   as the baselines and test oracles the fused path is pinned against.
//!
//! # NCHW in place, one example per task
//!
//! No convolution GEMM writes a whole-batch intermediate, and none forms
//! the lowered input on the blocked route. Write `col_i` for example `i`'s
//! lowered input in the `(C_in·R·S, P·Q)` orientation, the transpose of
//! its `im2col` rows:
//!
//! * forward: `W × col_i`, one example per pool task, straight into the
//!   example's NCHW output, whose `(C_out, P·Q)` planes are the product's
//!   rows; the bias is added afterwards. The B packing fills each strip
//!   row of `col_i` from the input (a [`Lowered`] view): one patch
//!   column's run of output positions, padding as explicit zeros;
//! * data gradient: `Wᵀ × G(Y)_i`, one example per pool task, into a
//!   `(C_in·R·S, P·Q)` tile, which the task folds into `G(X)_i` as
//!   [`col2im`] would, reading each tile row contiguously (on the reference
//!   route, the `(P·Q, C_in·R·S)` product `G(Y)_iᵀ × W`);
//! * weight gradients: `col_i × G(Y)_iᵀ`, the transpose of `G(W)`, summed
//!   over the examples' K panels in turn. `col_i` is read in place as the A
//!   operand, row by row from the example's input with its zero border
//!   written out ([`microkernel_rows`]), and only `G(Y)_i`'s `(C_out, P·Q)`
//!   NCHW slice is packed. A large per-batch product splits its patch
//!   columns over the pool.
//!
//! The two scalar routes form a per-example tile in thread-local scratch:
//! the tiny-K forward (a first layer's `C_in·R·S < 16`) runs the reference
//! loop's arithmetic over the long rows of `col_i`, and the reference route
//! runs the scalar loop itself on the example's `im2col` rows.
//!
//! Every element comes out with the bits of the whole-batch GEMM. The route
//! (blocked kernel or the scalar reference loop's arithmetic, see
//! `gemm::Route`) is decided once, from the whole-batch shape, and
//! replayed per example, so each element keeps its kernel, its K panels
//! and its FMA sequence. The blocked routes compute the transposes of the
//! batch products `patches × Wᵀ`, `G(Y) × W` and `G(Y) × patches`; a fused
//! multiply-add rounds only its exact result, so it is commutative in its
//! two factors and the transpose changes no bit. The scalar routes keep
//! the reference loop's zero skip on the operand it always tested: the
//! patch value in the forward and the weight gradients, the gradient in
//! the data gradient.
//!
//! The data movement around the GEMMs — [`im2col`], the folds and
//! [`nchw_to_rows`] — runs on the shared pool, one task per example. Every
//! output element is written by exactly one task, padding included, and a
//! fold adds each element's contributions in the same order as a serial
//! loop, starting from +0.0, so the results are bitwise the same at every
//! thread count. The inner loops visit only the output positions each
//! filter tap lands in bounds for (worked out once per geometry, see
//! [`Lowering`]), instead of bounds-checking every element.

use crate::gemm::{
    gemm_reference, gemm_serial, microkernel_rows, pack_b, with_scratch, MatRef, Route,
    COL_SPLIT_THRESHOLD, KC, MR, NR,
};
use crate::matmul::matmul_tn;
use crate::parallel;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::ops::Range;

thread_local! {
    /// Per-thread tile of the per-example convolution tasks: one example's
    /// patch gradient, or on the scalar routes its lowered input (113 KB
    /// for a 16→32 channel 3×3 convolution on 14×14), reused across calls.
    static TILE_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread copy of one example's input with its zero border, which
    /// the weight-gradient kernel reads `col_i` from.
    static PAD_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed K panel of one example's `G(Y)_iᵀ` for the
    /// weight-gradient kernel.
    static GRAD_PANEL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

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
    fn taps_in_bounds(&self) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
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

/// Output positions per block of the per-example `(C, P·Q)` → `(P·Q, C)`
/// transpose of [`nchw_to_rows`]: both sides of a block stay L1-resident.
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

/// Checks that `input` is an `(N, C_in, H, W)` batch under `geom` and
/// returns `N`.
fn input_batch(input: &Tensor, geom: &Conv2dGeom) -> usize {
    let dims = input.shape().dims();
    assert_eq!(dims.len(), 4, "expected NCHW input, got {}", input.shape());
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
    n
}

/// Checks that `weight` has [`Conv2dGeom::weight_len`] elements.
fn check_weight(weight: &Tensor, geom: &Conv2dGeom) {
    assert_eq!(
        weight.len(),
        geom.weight_len(),
        "weight has {} elements, geometry implies {}",
        weight.len(),
        geom.weight_len()
    );
}

/// One patch column of a [`Lowering`]: a filter tap `(ci, ki, kj)`.
#[derive(Clone, Debug)]
struct Tap {
    /// `(ci·H + ki)·W + kj`. At output position `(pi, qi)` the tap reads
    /// input element `offset + (pi·W + qi)·stride − (pad·W + pad)`.
    offset: usize,
    /// The output rows at which the tap lands inside the input.
    rows: Range<usize>,
    /// The output columns at which the tap lands inside the input.
    cols: Range<usize>,
}

/// A convolution's lowering, worked out once per geometry: for every patch
/// column, in [`im2col`]'s column order, where it reads in an example's
/// `(C_in, H, W)` input and at which output positions it lands inside it.
/// Every lowered value — a patch matrix entry — is an input element or a
/// padding zero, and every routine here that forms or folds one reads
/// these tables.
#[derive(Clone, Debug)]
struct Lowering {
    geom: Conv2dGeom,
    /// Output columns `Q`.
    q: usize,
    /// `pad·W + pad`, the padding's offset in [`Tap::offset`].
    shift: usize,
    taps: Vec<Tap>,
}

impl Lowering {
    fn new(geom: &Conv2dGeom) -> Self {
        let (in_rows, in_cols) = geom.taps_in_bounds();
        let (k, h, w) = (geom.k, geom.in_h, geom.in_w);
        let taps = (0..geom.cin * k * k)
            .map(|col| {
                let (ci, ki, kj) = (col / (k * k), col / k % k, col % k);
                Tap {
                    offset: (ci * h + ki) * w + kj,
                    rows: in_rows[ki].clone(),
                    cols: in_cols[kj].clone(),
                }
            })
            .collect();
        Self {
            geom: *geom,
            q: geom.out_hw().1,
            shift: geom.pad * (w + 1),
            taps,
        }
    }

    /// The input element tap `t` reads at output position `(pi, qi)`,
    /// which must lie in the tap's rows and columns.
    #[inline(always)]
    fn index(&self, t: &Tap, pi: usize, qi: usize) -> usize {
        (pi * self.geom.in_w + qi) * self.geom.stride + t.offset - self.shift
    }

    /// `image`'s `col_i`, `(C_in·R·S, P·Q)`, as a GEMM operand.
    fn columns<'a>(&'a self, image: &'a [f32]) -> Lowered<'a> {
        Lowered {
            lowering: self,
            image,
            row0: 0,
            col0: 0,
        }
    }

    /// Writes tap `t`'s lowered values at the output positions from
    /// `(pi, qi)` on, in position order, over `out`: the input element each
    /// reads, or zero in the padding. Within one output row the reads are
    /// a run of one input row, contiguous at stride 1.
    fn tap_run(
        &self,
        t: &Tap,
        image: &[f32],
        (mut pi, mut qi): (usize, usize),
        mut out: &mut [f32],
    ) {
        let stride = self.geom.stride;
        while !out.is_empty() {
            let len = (self.q - qi).min(out.len());
            let (seg, rest) = std::mem::take(&mut out).split_at_mut(len);
            if t.rows.contains(&pi) {
                let lo = t.cols.start.clamp(qi, qi + len);
                let hi = t.cols.end.clamp(lo, qi + len);
                let (head, body) = seg.split_at_mut(lo - qi);
                let (body, tail) = body.split_at_mut(hi - lo);
                head.fill(0.0);
                if lo < hi {
                    let src = &image[self.index(t, pi, lo)..];
                    if stride == 1 {
                        body.copy_from_slice(&src[..body.len()]);
                    } else {
                        for (o, &v) in body.iter_mut().zip(src.iter().step_by(stride)) {
                            *o = v;
                        }
                    }
                }
                tail.fill(0.0);
            } else {
                seg.fill(0.0);
            }
            out = rest;
            pi += 1;
            qi = 0;
        }
    }

    /// Writes `image`'s `col_i`, `(C_in·R·S, P·Q)` row-major, over `cols`.
    fn lower_columns(&self, image: &[f32], cols: &mut [f32]) {
        let pq = cols.len() / self.taps.len().max(1);
        for (row, t) in cols.chunks_exact_mut(pq.max(1)).zip(&self.taps) {
            self.tap_run(t, image, (0, 0), row);
        }
    }

    /// Writes `image`'s `im2col` rows, `(P·Q, C_in·R·S)` row-major, over
    /// `rows`: each output row `pi` (Q patch rows) is zeroed, then every
    /// tap landing on it copies its run of input columns down its patch
    /// column.
    fn lower_rows(&self, image: &[f32], rows: &mut [f32]) {
        let patch = self.taps.len();
        for (pi, block) in rows.chunks_exact_mut((self.q * patch).max(1)).enumerate() {
            block.fill(0.0);
            for (col, t) in self.taps.iter().enumerate() {
                if t.rows.contains(&pi) {
                    for qi in t.cols.clone() {
                        block[qi * patch + col] = image[self.index(t, pi, qi)];
                    }
                }
            }
        }
    }

    /// The plane extent of the padded input: `(H + 2·pad, W + 2·pad)`, or
    /// the filter's reach where it overhangs that.
    fn padded_hw(&self) -> (usize, usize) {
        let g = &self.geom;
        let (p, q) = g.out_hw();
        let reach =
            |len: usize, outputs: usize| (len + 2 * g.pad).max((outputs - 1) * g.stride + g.k);
        (reach(g.in_h, p), reach(g.in_w, q))
    }

    /// Writes `image` with its zero border over `padded`, `C_in` planes of
    /// [`Lowering::padded_hw`]: every tap of every output position reads
    /// inside it.
    fn pad(&self, image: &[f32], padded: &mut [f32]) {
        let (w, pad) = (self.geom.in_w, self.geom.pad);
        let (hp, wp) = self.padded_hw();
        padded.fill(0.0);
        for (plane, src) in padded
            .chunks_exact_mut(hp * wp)
            .zip(image.chunks_exact(self.geom.in_h * w))
        {
            for (row, src) in plane[pad * wp..]
                .chunks_exact_mut(wp)
                .zip(src.chunks_exact(w))
            {
                row[pad..pad + w].copy_from_slice(src);
            }
        }
    }

    /// Folds one example's patch gradient into `image`, its `(C_in, H, W)`
    /// block, overwriting it: `src.at(s, col)` is patch column `col` of
    /// output position `s = pi·Q + qi`.
    ///
    /// Patch columns are walked last to first, each over its output
    /// positions in order. An input element takes its contributions in
    /// position order `(pi, qi)`, starting from +0.0, as in a serial loop
    /// over the patch rows: they all come from one channel, a later `pi`
    /// reaches the element through a smaller `ki`, and within one `pi` a
    /// later `qi` through a smaller `kj`, so descending `(ki, kj)` is
    /// ascending `(pi, qi)` at any stride.
    fn fold(&self, src: MatRef, image: &mut [f32]) {
        let (q, stride) = (self.q, self.geom.stride);
        image.fill(0.0);
        for (col, t) in self.taps.iter().enumerate().rev() {
            if t.cols.is_empty() {
                continue;
            }
            for pi in t.rows.clone() {
                let first = self.index(t, pi, t.cols.start);
                let positions = pi * q + t.cols.start..pi * q + t.cols.end;
                match src.col_run(col) {
                    // Rows unit-stride (a tile): a run of the tile row.
                    Some(run) => {
                        let run = &run[positions];
                        if stride == 1 {
                            for (o, &v) in image[first..][..run.len()].iter_mut().zip(run) {
                                *o += v;
                            }
                        } else {
                            for (o, &v) in image[first..].iter_mut().step_by(stride).zip(run) {
                                *o += v;
                            }
                        }
                    }
                    None => {
                        for (o, s) in image[first..].iter_mut().step_by(stride).zip(positions) {
                            *o += src.at(s, col);
                        }
                    }
                }
            }
        }
    }
}

/// One example's convolution input viewed as its lowered form `col_i`,
/// `(C_in·R·S, P·Q)` with a row per patch column: the forward's B operand,
/// never formed, which the blocked GEMM's B packing reads through
/// [`Lowered::pack_strip`].
#[derive(Clone, Copy)]
pub(crate) struct Lowered<'a> {
    lowering: &'a Lowering,
    /// The example's `(C_in, H, W)` input.
    image: &'a [f32],
    /// The view's first row.
    row0: usize,
    /// The view's first column.
    col0: usize,
}

impl Lowered<'_> {
    /// The view of rows `row0..` of this operand.
    pub(crate) fn rows_from(self, row0: usize) -> Self {
        Self {
            row0: self.row0 + row0,
            ..self
        }
    }

    /// The view of columns `col0..` of this operand.
    pub(crate) fn cols_from(self, col0: usize) -> Self {
        Self {
            col0: self.col0 + col0,
            ..self
        }
    }

    /// Packs columns `j0..j0 + jw` of this operand's first `strip.len() /
    /// W` rows into one `W`-wide strip, `strip[kk][jr]`, zero past `jw`:
    /// the slots the formed matrix's row-major packing would fill. Each
    /// strip row is a run of one tap's output positions
    /// ([`Lowering::tap_run`]).
    pub(crate) fn pack_strip<const W: usize>(&self, j0: usize, jw: usize, strip: &mut [f32]) {
        let l = self.lowering;
        let s0 = self.col0 + j0;
        let start = (s0 / l.q, s0 % l.q);
        for (row, t) in strip.chunks_exact_mut(W).zip(&l.taps[self.row0..]) {
            let (vals, zeros) = row.split_at_mut(jw);
            l.tap_run(t, self.image, start, vals);
            zeros.fill(0.0);
        }
    }
}

/// Unfolds an NCHW input batch into the patch matrix of shape
/// `(N * P * Q, C_in * R * S)`.
///
/// Row `n*P*Q + p*Q + q` holds the receptive field of output position
/// `(p, q)` for example `n`; out-of-bounds positions read as zero (padding).
/// The fused convolutions never form it: it is the naive lowering behind
/// [`conv2d_backward_weight`], and the oracle the fused paths are pinned
/// against.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or its channel/spatial dims disagree with
/// `geom`.
pub fn im2col(input: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let n = input_batch(input, geom);
    let (p, q) = geom.out_hw();
    let patch = geom.patch_len();
    let image_len = geom.cin * geom.in_h * geom.in_w;
    let lowering = Lowering::new(geom);
    let mut out = Tensor::for_overwrite(&[n * p * q, patch]);
    let iv = input.data();
    // One task per example.
    parallel::par_chunks_mut(out.data_mut(), (p * q * patch).max(1), |ni, rows| {
        lowering.lower_rows(&iv[ni * image_len..][..image_len], rows);
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
    let lowering = Lowering::new(geom);
    let mut out = Tensor::for_overwrite(&[n, geom.cin, geom.in_h, geom.in_w]);
    let cv = cols.data();
    // One task per example image.
    parallel::par_chunks_mut(out.data_mut(), image_len.max(1), |ni, image| {
        let rows = &cv[ni * p * q * patch..(ni + 1) * p * q * patch];
        lowering.fold(MatRef::row_major(rows, patch), image);
    });
    out
}

/// Forward convolution: input `(N, C_in, H, W)`, weight `(C_out, C_in, R, S)`,
/// output `(N, C_out, P, Q)`.
///
/// The forward GEMM of the paper's Figure 6,
/// `(M, K, N) = (B·P·Q, C_in·R·S, C_out)`, run as its transpose one
/// example at a time (see the module docs and [`ConvInput::forward`]).
///
/// # Panics
///
/// Panics on any layout mismatch with `geom`.
pub fn conv2d(input: &Tensor, weight: &Tensor, geom: &Conv2dGeom) -> Tensor {
    forward(input, &Lowering::new(geom), weight, None)
}

/// The forward convolution of an NCHW batch under `lowering`'s geometry.
/// One pool task per example writes the example's `(C_out, P, Q)` output
/// in place, on the whole-batch GEMM's route, then adds the bias: one
/// rounding per element, as adding it to the finished output would.
fn forward(input: &Tensor, lowering: &Lowering, weight: &Tensor, bias: Option<&Tensor>) -> Tensor {
    let geom = &lowering.geom;
    let n = input_batch(input, geom);
    check_weight(weight, geom);
    let (cout, patch) = (geom.cout, geom.patch_len());
    if let Some(b) = bias {
        assert_eq!(
            b.len(),
            cout,
            "bias has {} elements, C_out is {cout}",
            b.len()
        );
    }
    let (p, q) = geom.out_hw();
    let pq = p * q;
    let image_len = geom.cin * geom.in_h * geom.in_w;
    let (iv, wv) = (input.data(), weight.data());
    let route = Route::of(n * pq, patch, cout);
    let mut out = Tensor::for_overwrite(&[n, cout, p, q]);
    parallel::par_chunks_mut(out.data_mut(), (cout * pq).max(1), |ni, y| {
        let x = &iv[ni * image_len..][..image_len];
        match route {
            Route::Blocked => {
                y.fill(0.0);
                let w = MatRef::row_major(wv, patch);
                gemm_serial(cout, patch, pq, w, lowering.columns(x), y);
            }
            // The reference loop's arithmetic over `col_i`'s long rows:
            // each element takes its terms in ascending patch order,
            // skipping a zero patch value.
            Route::TinyK => with_scratch(&TILE_SCRATCH, patch * pq, |cols| {
                lowering.lower_columns(x, cols);
                for (plane, w_row) in y.chunks_exact_mut(pq).zip(wv.chunks_exact(patch)) {
                    plane.fill(0.0);
                    for (col, &wk) in cols.chunks_exact(pq).zip(w_row) {
                        for (o, &v) in plane.iter_mut().zip(col) {
                            *o = if v == 0.0 { *o } else { *o + v * wk };
                        }
                    }
                }
            }),
            // The scalar loop on the example's `im2col` rows, into a
            // `(P·Q, C_out)` product written out plane by plane.
            Route::Reference => with_scratch(&TILE_SCRATCH, pq * (patch + cout), |tile| {
                let (rows, prod) = tile.split_at_mut(pq * patch);
                lowering.lower_rows(x, rows);
                prod.fill(0.0);
                let (a, w_t) = (
                    MatRef::row_major(rows, patch),
                    MatRef::transposed(wv, patch),
                );
                gemm_reference(pq, patch, cout, a, w_t, prod);
                for (co, plane) in y.chunks_exact_mut(pq).enumerate() {
                    for (o, row) in plane.iter_mut().zip(prod.chunks_exact(cout)) {
                        *o = row[co];
                    }
                }
            }),
        }
        if let Some(bias) = bias {
            for (plane, &b) in y.chunks_exact_mut(pq).zip(bias.data()) {
                for v in plane {
                    *v += b;
                }
            }
        }
    });
    out
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
    check_weight(weight, geom);
    let (p, q) = geom.out_hw();
    let (pq, cout, patch) = (p * q, geom.cout, geom.patch_len());
    // The whole-batch GEMM's route, replayed per example. Its B, the filter
    // matrix, is contiguous already, so the tiny-K route needs no copy.
    let blocked = Route::of(n * pq, cout, patch) == Route::Blocked;
    let lowering = Lowering::new(geom);
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
            lowering.fold(src, image);
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

/// A convolution layer's NCHW input batch, kept from the forward for every
/// backward pass that shares the forward's cache — both of DP-SGD(R)'s.
///
/// No patch matrix is kept: the weight gradients run as
/// `G(W)ᵀ = Σ_i col_i × G(Y)_iᵀ` (see the module docs), with A = example
/// `i`'s lowered input `col_i`, read in place from its kept input, and
/// B = the example's `(C_out, P·Q)` NCHW slice of the output gradient,
/// packed as its transpose.
///
/// Numerics: for every **per-example** window the GEMM routing, the
/// K-panel boundaries and the per-element accumulation order match the
/// naive per-example [`conv2d_backward_weight`] path (multiplication is
/// commutative under IEEE-754 even through FMA), so per-example gradients
/// and norms are bit-identical to the per-example `im2col` path — the
/// contract `tests/conv_fused_parity.rs` pins in the `diva-nn` crate. The
/// **per-batch** window is the exception: its panels split at every
/// example boundary while the naive batch GEMM splits only at multiples of
/// the K panel length, so [`ConvInput::backward_weight_batch`] matches
/// the naive batch path to reassociation tolerance (~1e-7 relative), not
/// bit-for-bit.
#[derive(Clone, Debug)]
pub struct ConvInput {
    input: Tensor,
    lowering: Lowering,
}

impl ConvInput {
    /// Keeps `input`, an NCHW batch, for the convolution `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match `geom` (see [`im2col`]).
    pub fn new(input: Tensor, geom: &Conv2dGeom) -> Self {
        input_batch(&input, geom);
        Self {
            input,
            lowering: Lowering::new(geom),
        }
    }

    /// The batch size of the kept input.
    pub fn batch(&self) -> usize {
        self.input.shape().dim(0)
    }

    /// Example `i`'s `(C_in, H, W)` input.
    fn image(&self, i: usize) -> &[f32] {
        let g = &self.lowering.geom;
        let len = g.cin * g.in_h * g.in_w;
        &self.input.data()[i * len..][..len]
    }

    /// Forward convolution of the kept input: identical arithmetic to
    /// [`conv2d`]. One pool task per example runs `W × col_i` straight
    /// into the example's NCHW output, then adds a `bias` of `(C_out,)`,
    /// one rounding per element, exactly as adding it to the output would.
    ///
    /// # Panics
    ///
    /// Panics if `weight` or `bias` does not match the geometry.
    pub fn forward(&self, weight: &Tensor, bias: Option<&Tensor>) -> Tensor {
        forward(&self.input, &self.lowering, weight, bias)
    }

    /// The per-batch weight gradient `(C_out, C_in, R, S)` from the kept
    /// input and the `(N, C_out, P, Q)` output gradient: the
    /// `(C_in·R·S, B·P·Q, C_out)` GEMM of the reweighted second pass, one
    /// K panel of one example at a time.
    ///
    /// # Panics
    ///
    /// Panics if `grad_out` is not this input's `(N, C_out, P, Q)`.
    pub fn backward_weight_batch(&self, grad_out: &Tensor) -> Tensor {
        let g = &self.lowering.geom;
        let mut gw = Tensor::zeros(&[g.cout, g.cin, g.k, g.k]);
        self.weight_grad_window(grad_out, 0..self.batch(), gw.data_mut());
        gw
    }

    /// The weight gradient of example `i`, `(C_out, C_in, R, S)` row-major,
    /// written over `out` — Algorithm 1's per-example
    /// `(C_in·R·S, P·Q, C_out)` derivation without the per-example
    /// `im2col`. Every element of `out` is overwritten, so it may be a
    /// recycled per-example gradient row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= batch`, `grad_out` is not this input's
    /// `(N, C_out, P, Q)`, or `out` is not [`Conv2dGeom::weight_len`] long.
    pub fn backward_weight_example(&self, grad_out: &Tensor, i: usize, out: &mut [f32]) {
        let n = self.batch();
        assert!(i < n, "example {i} out of bounds for batch {n}");
        self.weight_grad_window(grad_out, i..i + 1, out);
    }

    /// Shared weight-gradient core over the examples `ex`:
    /// `G(W)[co][d] = Σ_i Σ_s gy_i[co][s] · patches_i[s][d]`, written over
    /// `gw`. On the reference route each example's NCHW gradient slice is
    /// the A operand and its `im2col` rows, formed in a tile, the B operand.
    fn weight_grad_window(&self, grad_out: &Tensor, ex: Range<usize>, gw: &mut [f32]) {
        let g = &self.lowering.geom;
        assert_eq!(
            grad_batch(grad_out, g),
            self.batch(),
            "gradient batch mismatch"
        );
        let (cout, patch) = (g.cout, g.patch_len());
        assert_eq!(
            gw.len(),
            g.weight_len(),
            "weight-gradient output length mismatch"
        );
        let (p, q) = g.out_hw();
        let pq = p * q;
        let gy = |i: usize| MatRef::row_major(&grad_out.data()[i * cout * pq..][..cout * pq], pq);
        if Route::of(cout, ex.len() * pq, patch) == Route::Blocked {
            self.weight_grad_blocked(grad_out.data(), ex, gw);
        } else {
            // The scalar loop accumulates into its output.
            gw.fill(0.0);
            // One example at a time, on its `im2col` rows: every element
            // still takes its terms in ascending row order.
            with_scratch(&TILE_SCRATCH, pq * patch, |rows| {
                for i in ex {
                    self.lowering.lower_rows(self.image(i), rows);
                    gemm_reference(cout, pq, patch, gy(i), MatRef::row_major(rows, patch), gw);
                }
            });
        }
    }

    /// [`ConvInput::weight_grad_window`]'s blocked route, run as its
    /// transpose `G(W)ᵀ = Σ_i col_i × G(Y)_iᵀ` and written transposed over
    /// `gw`. A product of at least `COL_SPLIT_THRESHOLD` multiply-adds
    /// splits its rows, the patch columns, over the pool in `MR`-aligned
    /// blocks; each block packs every example's `G(Y)_iᵀ` itself.
    ///
    /// The bits are those of the blocked GEMM `Σ_i G(Y)_i × col_iᵀ` over
    /// each example's K panels in turn (split at every example boundary,
    /// then every `KC`): every element takes one fused multiply-add per
    /// output position, positions ascending, from +0.0 within a panel, and
    /// adds each panel's sum to its running total in panel order. The FMA
    /// is commutative in its two factors, so taking `col_i`'s value first
    /// changes no bit; padding still enters as explicit zero products.
    fn weight_grad_blocked(&self, grad_out: &[f32], ex: Range<usize>, gw: &mut [f32]) {
        let g = &self.lowering.geom;
        let (cout, patch) = (g.cout, g.patch_len());
        let (p, q) = g.out_hw();
        let workers = if cout * ex.len() * p * q * patch < COL_SPLIT_THRESHOLD {
            1
        } else {
            parallel::effective_threads()
        };
        let rows = patch.div_ceil(MR).div_ceil(workers) * MR;
        let mut gw_t = vec![0.0f32; patch * cout];
        parallel::par_chunks_mut(&mut gw_t, rows * cout, |blk, c| {
            self.weight_grad_rows(grad_out, ex.clone(), blk * rows, c);
        });
        for (col, row) in gw_t.chunks_exact(cout).enumerate() {
            for (co, &v) in row.iter().enumerate() {
                gw[co * patch + col] = v;
            }
        }
    }

    /// Adds rows `t0..` of `G(W)ᵀ` over the examples `ex` into `c`,
    /// `(rows, C_out)` row-major. Per example and K panel, `G(Y)_iᵀ`'s
    /// panel is packed into `NR`-wide strips, and each `MR × NR` tile runs
    /// [`microkernel_rows`] over it with `col_i`'s rows read in place from
    /// the example's padded input ([`Lowering::pad`]), one output row of
    /// positions at a time: `col_i` is never formed or packed.
    fn weight_grad_rows(&self, grad_out: &[f32], ex: Range<usize>, t0: usize, c: &mut [f32]) {
        let l = &self.lowering;
        let g = &l.geom;
        let (cout, k, stride, q) = (g.cout, g.k, g.stride, l.q);
        let pq = g.out_hw().0 * q;
        let (hp, wp) = l.padded_hw();
        // Patch column `col`'s read in the padded input, relative to output
        // position `(pi, qi)`'s `(pi·wp + qi)·stride`.
        let offset = |col: usize| {
            let (ci, ki, kj) = (col / (k * k), col / k % k, col % k);
            (ci * hp + ki) * wp + kj
        };
        let n_strips = cout.div_ceil(NR);
        with_scratch(&PAD_SCRATCH, g.cin * hp * wp, |padded| {
            with_scratch(&GRAD_PANEL_SCRATCH, n_strips * NR * KC.min(pq), |packed| {
                for i in ex {
                    l.pad(self.image(i), padded);
                    let gy_t = MatRef::transposed(&grad_out[i * cout * pq..][..cout * pq], pq);
                    for k0 in (0..pq).step_by(KC) {
                        let kb = KC.min(pq - k0);
                        let strips = &mut packed[..n_strips * kb * NR];
                        pack_b(gy_t.rows_from(k0).into(), kb, cout, strips);
                        for (sa, c_rows) in c.chunks_mut(MR * cout).enumerate() {
                            let rh = c_rows.len() / cout;
                            // Rows past the last patch column repeat it;
                            // their sums are dropped.
                            let offs: [usize; MR] =
                                std::array::from_fn(|ir| offset(t0 + sa * MR + ir.min(rh - 1)));
                            for (sb, b_panel) in strips.chunks_exact(kb * NR).enumerate() {
                                let mut acc = [[0.0f32; NR]; MR];
                                let mut s = k0;
                                while s < k0 + kb {
                                    let (pi, qi) = (s / q, s % q);
                                    let len = (q - qi).min(k0 + kb - s);
                                    let origin = (pi * wp + qi) * stride;
                                    let a = offs.map(|o| &padded[origin + o..]);
                                    let b = &b_panel[(s - k0) * NR..][..len * NR];
                                    acc = microkernel_rows(a, stride, b, acc);
                                    s += len;
                                }
                                let (j0, jw) = (sb * NR, NR.min(cout - sb * NR));
                                for (crow, arow) in c_rows.chunks_exact_mut(cout).zip(&acc) {
                                    for (cv, &v) in crow[j0..j0 + jw].iter_mut().zip(arow) {
                                        *cv += v;
                                    }
                                }
                            }
                        }
                    }
                }
            });
        });
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

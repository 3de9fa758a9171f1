//! Per-example gradient rows and the software post-processing unit (PPU)
//! of vanilla DP-SGD.
//!
//! Algorithm 1 (lines 16–25) derives every example's weight gradient, takes
//! its norm, clips it and reduces. Each parameter layer writes example `i`'s
//! gradient — its parameter tensors laid end to end, a *row* — with one row
//! writer, and three paths run the writers:
//!
//! * **Streamed** ([`clipped_sum`], behind `Network::clipped_sum`, which
//!   the DP-SGD trainer runs). An example's gradient is needed only until
//!   its norm and clip factor are known, so examples pass through one
//!   recycled block buffer a few at a time: the block's rows are written
//!   and normed, the caller's clip rule turns their norms into factors, and
//!   the block is reduced into the sum. Per-example gradient memory is one
//!   block, never `B` rows.
//! * **Materialized** ([`PerExampleGrads`], `GradMode::PerExample`): one
//!   layer's gradients in a `(B, P)` arena, row `i` example `i`'s. It is the
//!   oracle the stream is pinned to bit for bit.
//! * **Norms only** ([`sq_norms`], `GradMode::NormOnly`, the first pass of
//!   DP-SGD(R)): each example's row goes into a scratch [`Buffer`], its norm
//!   is taken and the buffer handed back.
//!
//! All three share the same arithmetic:
//!
//! * **Written once, into recycled rows.** The pool task that derives
//!   example `i` writes its row in place — no per-example tensor, no copy.
//!   Rows live in [`Buffer`]s from `diva_tensor`'s recycled buffer pool,
//!   taken unfilled and returned on drop, so a training loop reuses the
//!   same pages step after step instead of faulting a fresh multi-MiB
//!   allocation in every step.
//! * **Norms while hot.** DiVa's PPU derives gradient norms from output rows
//!   as they drain from the GEMM engine, so per-example gradients never make
//!   a second trip (`diva_pearray`'s `Ppu`). In software, the task that
//!   wrote a row takes its squared norm right after writing it, while the
//!   row is still in cache.
//! * **Reduced in parallel.** The clip-weighted reduce is the `(1, B, P)`
//!   GEMM `factorsᵀ × G`, cut into column blocks across the pool
//!   ([`diva_tensor::weighted_row_sum`]); the stream runs it over each
//!   block's rows in turn, continuing the same accumulators.

use std::fmt;

use diva_tensor::{parallel, sq_norm, weighted_row_sum, Buffer, Tensor};

/// One layer's per-example weight gradients: a `(B, P)` arena whose row `i`
/// holds example `i`'s gradient (the layer's parameter tensors, in
/// [`crate::Layer::params`] order, laid end to end), plus each row's squared
/// L2 norm, taken by the task that wrote the row.
#[derive(Clone)]
pub struct PerExampleGrads {
    rows: Buffer,
    batch: usize,
    shapes: Vec<Vec<usize>>,
    /// `offsets[p]..offsets[p + 1]` is parameter `p`'s segment of a row.
    offsets: Vec<usize>,
    sq_norms: Vec<f64>,
}

impl PerExampleGrads {
    /// Derives `batch` per-example gradients for a layer with parameters
    /// `params`: `write(i, row)` writes example `i`'s gradient over `row`
    /// and must overwrite every element (the row is recycled memory).
    /// Examples fan out over the shared pool in fixed contiguous ranges;
    /// each row's squared norm is taken right after `write` returns.
    pub(crate) fn build<F>(batch: usize, params: &[&Tensor], write: F) -> Self
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        let (shapes, offsets) = layout(params);
        let width = row_width(&offsets);
        let mut rows = Buffer::for_overwrite(batch * width);
        let mut slots: Vec<(&mut [f32], f64)> =
            rows.chunks_mut(width).map(|row| (row, 0.0)).collect();
        parallel::par_chunks_mut(&mut slots, 1, |i, slot| {
            let (row, norm) = &mut slot[0];
            write(i, row);
            *norm = row_sq_norm(row, &offsets);
        });
        let sq_norms = slots.into_iter().map(|(_, norm)| norm).collect();
        Self {
            rows,
            batch,
            shapes,
            offsets,
            sq_norms,
        }
    }

    /// The number of examples `B`.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The shapes of the layer's parameter tensors, in row order.
    pub fn param_shapes(&self) -> &[Vec<usize>] {
        &self.shapes
    }

    /// Example `i`'s gradient of parameter `p`, flattened.
    ///
    /// # Panics
    ///
    /// Panics if `i >= batch` or `p` is not a parameter index.
    pub fn param(&self, i: usize, p: usize) -> &[f32] {
        assert!(
            i < self.batch,
            "example {i} out of bounds for batch {}",
            self.batch
        );
        let row = i * row_width(&self.offsets);
        &self.rows[row + self.offsets[p]..row + self.offsets[p + 1]]
    }

    /// Each example's squared L2 norm, taken while its row was hot.
    pub fn sq_norms(&self) -> &[f64] {
        &self.sq_norms
    }

    /// Copies the arena out as `examples[i][p]` tensors (for inspection and
    /// tests; the training path never materializes them).
    pub fn examples(&self) -> Vec<Vec<Tensor>> {
        (0..self.batch)
            .map(|i| {
                self.shapes
                    .iter()
                    .enumerate()
                    .map(|(p, shape)| Tensor::from_vec(self.param(i, p).to_vec(), shape))
                    .collect()
            })
            .collect()
    }

    /// The clip-weighted reduce `Σᵢ weights[i] · gᵢ`, one tensor per
    /// parameter: the `(1, B, P)` GEMM `weightsᵀ × G` over the arena, column
    /// blocks split across the pool. Examples accumulate in order with one
    /// fused multiply-add each, so the result is bit-identical to adding
    /// `weights[i] · gᵢ` one example at a time with
    /// [`diva_tensor::add_scaled`], at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != batch`.
    pub fn weighted_sum(&self, weights: &[f64]) -> Vec<Tensor> {
        assert_eq!(weights.len(), self.batch, "one weight per example required");
        let weights: Vec<f32> = weights.iter().map(|&w| w as f32).collect();
        let width = row_width(&self.offsets);
        self.shapes
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(shape, seg)| {
                let mut acc = Tensor::zeros(shape);
                let rows = self.rows.get(seg[0]..).unwrap_or_default();
                weighted_row_sum(rows, width, &weights, acc.data_mut());
                acc
            })
            .collect()
    }
}

impl fmt::Debug for PerExampleGrads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PerExampleGrads")
            .field("batch", &self.batch)
            .field("param_shapes", &self.shapes)
            .field("sq_norms", &self.sq_norms)
            .finish_non_exhaustive()
    }
}

/// `NormOnly` through a layer's row writer: example `i`'s gradient is
/// written into a recycled scratch row (`write` overwrites every element,
/// as for [`PerExampleGrads::build`]), its squared norm taken while hot and
/// the row handed back.
pub(crate) fn sq_norms<F>(batch: usize, params: &[&Tensor], write: F) -> Vec<f64>
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let (_, offsets) = layout(params);
    let width = row_width(&offsets);
    parallel::par_map(batch, |i| {
        let mut row = Buffer::for_overwrite(width);
        write(i, &mut row);
        row_sq_norm(&row, &offsets)
    })
}

/// DP-SGD's clip-weighted sum `Σᵢ cᵢ · gᵢ` over `batch` examples of a
/// network whose parameter layers have parameters `params` (layer order),
/// streamed through blocks of examples instead of a `(B, P)` arena per
/// layer. Returns each layer's reduced gradient, one tensor per parameter,
/// and each example's squared norm.
///
/// A network row is every layer's arena row laid end to end. For each
/// block, one pool task per example writes the example's row into one
/// recycled block buffer — `write(l, i, segment)` writes layer `l`'s
/// segment and must overwrite it — and takes each layer's norm while the
/// row is hot. `clip` turns the block's squared norms into clip factors,
/// and one [`weighted_row_sum`] over the block continues a flat accumulator
/// that starts at +0.0.
///
/// Every number is the arena's: the rows, each layer's norm and their sum
/// in layer order ([`crate::NetworkGrads::per_example_sq_norms`]), the
/// `f32` factors, and each accumulator element's chain of one fused
/// multiply-add per example in example order
/// ([`PerExampleGrads::weighted_sum`]). So the result is bitwise the
/// arena's at any pool width and block size.
///
/// A block holds the smallest multiple of four examples that is at least
/// the pool width: every worker gets an example, and the reduce keeps its
/// four-row sweep.
///
/// # Panics
///
/// Panics if `clip` returns other than one factor per example.
pub(crate) fn clipped_sum<W, F>(
    batch: usize,
    params: &[Vec<&Tensor>],
    write: W,
    mut clip: F,
) -> (Vec<Vec<Tensor>>, Vec<f64>)
where
    W: Fn(usize, usize, &mut [f32]) + Sync,
    F: FnMut(&[f64]) -> Vec<f64>,
{
    let layouts: Vec<_> = params.iter().map(|p| layout(p)).collect();
    // Layer `l`'s segment of a network row is `bounds[l]..bounds[l + 1]`.
    let bounds: Vec<usize> = std::iter::once(0)
        .chain(layouts.iter().scan(0, |end, (_, offsets)| {
            *end += row_width(offsets);
            Some(*end)
        }))
        .collect();
    let width = row_width(&bounds);
    if width == 0 {
        // No parameters: nothing to write, norm or reduce.
        return (layouts.iter().map(|_| Vec::new()).collect(), Vec::new());
    }
    let block = parallel::effective_threads().next_multiple_of(4);
    let mut rows = Buffer::for_overwrite(block.min(batch) * width);
    let mut acc = Buffer::full(width, 0.0);
    let mut sq_norms = Vec::with_capacity(batch);
    for start in (0..batch).step_by(block) {
        let mut slots: Vec<(&mut [f32], f64)> = rows
            .chunks_mut(width)
            .take(batch - start)
            .map(|row| (row, 0.0))
            .collect();
        parallel::par_chunks_mut(&mut slots, 1, |k, slot| {
            let (row, norm) = &mut slot[0];
            *norm = layouts
                .iter()
                .zip(bounds.windows(2))
                .enumerate()
                .map(|(l, ((_, offsets), seg))| {
                    let segment = &mut row[seg[0]..seg[1]];
                    write(l, start + k, segment);
                    row_sq_norm(segment, offsets)
                })
                .reduce(|total, norm| total + norm)
                .unwrap_or(0.0);
        });
        let norms: Vec<f64> = slots.into_iter().map(|(_, norm)| norm).collect();
        let factors = clip(&norms);
        assert_eq!(
            factors.len(),
            norms.len(),
            "one clip factor per example required"
        );
        let weights: Vec<f32> = factors.iter().map(|&w| w as f32).collect();
        weighted_row_sum(&rows, width, &weights, &mut acc);
        sq_norms.extend(norms);
    }
    let sums = layouts
        .iter()
        .zip(&bounds)
        .map(|((shapes, offsets), &base)| {
            shapes
                .iter()
                .zip(offsets.windows(2))
                .map(|(shape, seg)| {
                    let mut sum = Tensor::for_overwrite(shape);
                    sum.data_mut()
                        .copy_from_slice(&acc[base + seg[0]..base + seg[1]]);
                    sum
                })
                .collect()
        })
        .collect();
    (sums, sq_norms)
}

/// Parameter shapes and segment offsets (`params.len() + 1` entries) of an
/// arena row.
fn layout(params: &[&Tensor]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let shapes = params.iter().map(|p| p.shape().dims().to_vec()).collect();
    let offsets = std::iter::once(0)
        .chain(params.iter().scan(0, |end, p| {
            *end += p.len();
            Some(*end)
        }))
        .collect();
    (shapes, offsets)
}

fn row_width(offsets: &[usize]) -> usize {
    offsets.last().copied().unwrap_or(0)
}

/// The PPU's norm of one row: `sq_norm` of each parameter segment, summed
/// in parameter order — the same number as summing
/// [`Tensor::squared_norm`] over the example's parameter tensors.
fn row_sq_norm(row: &[f32], offsets: &[usize]) -> f64 {
    offsets
        .windows(2)
        .map(|seg| sq_norm(&row[seg[0]..seg[1]]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GradMode, Layer, Network, ParamGrads};
    use diva_tensor::{softmax_cross_entropy, DivaRng};

    /// Recycled rows are written over, never read: with the shared buffer
    /// pool seeded with NaN buffers of every arena size this network asks
    /// for (its conv and first dense layers are sized past the pool's
    /// 64 KiB threshold), each layer's per-example gradients still sum to
    /// its per-batch gradient and its norms match the copied-out tensors.
    #[test]
    fn recycled_rows_never_leak_stale_data() {
        let mut rng = DivaRng::seed_from_u64(40);
        let net = Network::new(vec![
            Layer::conv2d(16, 40, 3, 1, 1, 6, 6, &mut rng),
            Layer::group_norm(40, 4),
            Layer::relu(),
            Layer::flatten(),
            Layer::dense(40 * 36, 12, true, &mut rng),
            Layer::relu(),
            Layer::dense(12, 4, false, &mut rng),
        ]);
        let b = 3;
        for layer in net.layers() {
            let width: usize = layer.params().iter().map(|p| p.len()).sum();
            if width > 0 {
                drop(Buffer::from(vec![f32::NAN; b * width]));
                drop(Buffer::from(vec![f32::NAN; width]));
            }
        }
        let x = Tensor::uniform(&[b, 16, 6, 6], -1.0, 1.0, &mut rng);
        let (y, caches) = net.forward(&x);
        let grad = softmax_cross_entropy(&y, &[0, 1, 3]).grad_logits;
        let per_ex = net.backward(&caches, &grad, GradMode::PerExample);
        let batch = net.backward(&caches, &grad, GradMode::PerBatch);
        let norms = net.backward(&caches, &grad, GradMode::NormOnly);
        for ((pe, pb), no) in per_ex.layers.iter().zip(&batch.layers).zip(&norms.layers) {
            let (ParamGrads::PerExample(pe), ParamGrads::PerBatch(pb)) = (pe, pb) else {
                continue;
            };
            let examples = pe.examples();
            for (p, total) in pb.iter().enumerate() {
                let mut sum = Tensor::zeros(total.shape().dims());
                for ex in &examples {
                    sum.add_assign(&ex[p]);
                }
                assert!(sum.max_abs_diff(total) < 1e-4, "param {p} diverged");
            }
            let ParamGrads::SqNorms(no) = no else {
                panic!("NormOnly must yield norms");
            };
            for (i, ex) in examples.iter().enumerate() {
                let copied: f64 = ex.iter().map(Tensor::squared_norm).sum();
                assert_eq!(pe.sq_norms()[i], copied, "hot norm {i} differs");
                assert!((no[i] - copied).abs() <= 1e-6 * copied.max(1.0));
            }
        }
    }
}

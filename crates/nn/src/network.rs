//! Sequential networks and whole-network gradient plumbing.

use diva_tensor::Tensor;

use crate::layer::{GradMode, Layer, LayerCache, ParamGrads};
use crate::per_example;

/// A feed-forward stack of [`Layer`]s applied in order.
///
/// The network itself is immutable during forward/backward; all per-batch
/// state lives in the returned caches. This makes the two-pass reweighted
/// backpropagation of DP-SGD(R) trivial: run `backward` twice against the
/// same caches with different loss gradients.
#[derive(Clone, Debug)]
pub struct Network {
    layers: Vec<Layer>,
}

/// Whole-network gradients, one [`ParamGrads`] per layer (parameter-free
/// layers contribute [`ParamGrads::None`]).
#[derive(Clone, Debug)]
pub struct NetworkGrads {
    /// Per-layer gradients, in layer order.
    pub layers: Vec<ParamGrads>,
}

impl Network {
    /// Creates a network from a list of layers.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// The layers in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (for weight updates).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Runs the network forward, returning the output and per-layer caches.
    pub fn forward(&self, x: &Tensor) -> (Tensor, Vec<LayerCache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &self.layers {
            let (y, cache) = layer.forward(&cur);
            caches.push(cache);
            cur = y;
        }
        (cur, caches)
    }

    /// Runs the network backward from the loss gradient at the output.
    ///
    /// `grad_loss` must have the shape of the network output, with one row
    /// per example and *no* batch averaging applied (DP-SGD needs raw
    /// per-example gradients; plain SGD can divide the result by `B`).
    ///
    /// The first layer's input gradient is never consumed by anyone, so it
    /// is not derived at all (`need_input_grad = false` — for a first conv
    /// layer this skips a whole `(B·P·Q, C_out, C_in·R·S)` GEMM plus a
    /// `col2im` per pass, which DP-SGD(R) would otherwise pay twice).
    ///
    /// # Panics
    ///
    /// Panics if `caches` was not produced by a matching `forward` call.
    pub fn backward(
        &self,
        caches: &[LayerCache],
        grad_loss: &Tensor,
        mode: GradMode,
    ) -> NetworkGrads {
        assert_eq!(
            caches.len(),
            self.layers.len(),
            "cache count {} does not match layer count {}",
            caches.len(),
            self.layers.len()
        );
        let mut grads = vec![ParamGrads::None; self.layers.len()];
        let mut grad = grad_loss.clone();
        for (idx, (layer, cache)) in self.layers.iter().zip(caches).enumerate().rev() {
            let out = layer.backward_opt(cache, &grad, mode, idx > 0);
            grads[idx] = out.grads;
            if idx > 0 {
                grad = out
                    .grad_input
                    .expect("non-first layers must derive an input gradient");
            }
        }
        NetworkGrads { layers: grads }
    }

    /// Vanilla DP-SGD's clipped sum (paper Algorithm 1 lines 16–25)
    /// without a batch-sized arena: returns `Σᵢ cᵢ · gᵢ` as per-batch
    /// gradients, and each example's squared norm `‖gᵢ‖²`.
    ///
    /// The data-gradient chain runs over the whole batch first, with
    /// exactly [`Network::backward`]'s calls, and each parameter layer
    /// keeps what its row writer reads (its output gradient; LSTM's gate
    /// gradients; GroupNorm's per-example `dγ`, `dβ`). Examples then
    /// stream through one recycled block buffer a few at a time: a block's
    /// rows are written and normed, `clip` maps the block's squared norms
    /// to its clip factors `cᵢ`, and the block is reduced into the sum.
    /// Per-example gradient memory is one block, not `B` rows per layer.
    ///
    /// The result is bitwise that of the materialized path —
    /// [`GradMode::PerExample`], [`NetworkGrads::per_example_sq_norms`],
    /// the same `clip`, [`NetworkGrads::weighted_reduce`] — at any pool
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `caches` does not match this network, or `clip` returns
    /// other than one factor per squared norm.
    pub fn clipped_sum(
        &self,
        caches: &[LayerCache],
        grad_loss: &Tensor,
        clip: impl FnMut(&[f64]) -> Vec<f64>,
    ) -> (NetworkGrads, Vec<f64>) {
        assert_eq!(
            caches.len(),
            self.layers.len(),
            "cache count {} does not match layer count {}",
            caches.len(),
            self.layers.len()
        );
        let mut writers = Vec::new();
        let mut grad = Some(grad_loss.clone());
        for (idx, (layer, cache)) in self.layers.iter().zip(caches).enumerate().rev() {
            let grad_out = grad
                .take()
                .expect("non-first layers must derive an input gradient");
            let (grad_input, writer) = layer.backward_data(cache, grad_out, idx > 0);
            if let Some(write) = writer {
                writers.push((idx, layer, write));
            }
            grad = grad_input;
        }
        writers.reverse();
        let params: Vec<_> = writers.iter().map(|(_, layer, _)| layer.params()).collect();
        let (sums, sq_norms) = per_example::clipped_sum(
            grad_loss.shape().dim(0),
            &params,
            |w, i, row| (writers[w].2)(i, row),
            clip,
        );
        let mut layers = vec![ParamGrads::None; self.layers.len()];
        for ((idx, ..), sum) in writers.iter().zip(sums) {
            layers[*idx] = ParamGrads::PerBatch(sum);
        }
        (NetworkGrads { layers }, sq_norms)
    }

    /// The fused clip-and-reduce backward of DP-SGD(R) (paper Algorithm 1
    /// lines 36–41): scales the loss gradient of example `i` by
    /// `factors[i]` in a single pass and immediately runs the *per-batch*
    /// backward, so clipping rides the K=B reduction inside each layer's
    /// weight-gradient GEMM. No per-example gradient (or scaled copy of the
    /// per-example loss gradients beyond one `(B, F)` buffer) is ever
    /// materialized — the memory saving that motivates DP-SGD(R).
    ///
    /// Because this pass runs against the *same* `caches` as the preceding
    /// `NormOnly` pass, every convolution layer reads the input it kept in
    /// the forward (see `diva_tensor::ConvInput`), lowering it as its
    /// weight-gradient GEMM reads it.
    ///
    /// # Panics
    ///
    /// Panics if `grad_loss` is not `(B, F)` with `B == factors.len()`, or
    /// if `caches` does not match this network.
    pub fn backward_reweighted(
        &self,
        caches: &[LayerCache],
        grad_loss: &Tensor,
        factors: &[f64],
    ) -> NetworkGrads {
        let (b, f) = grad_loss.dims2();
        assert_eq!(b, factors.len(), "one clip factor per example required");
        let mut reweighted = grad_loss.clone();
        let rv = reweighted.data_mut();
        for (row, &w) in rv.chunks_mut(f).zip(factors) {
            let w = w as f32;
            for v in row {
                *v *= w;
            }
        }
        self.backward(caches, &reweighted, GradMode::PerBatch)
    }

    /// Applies `param -= lr * grad` for per-batch gradients.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not contain per-batch gradients matching this
    /// network's parameters.
    pub fn apply_update(&mut self, grads: &NetworkGrads, lr: f32) {
        assert_eq!(grads.layers.len(), self.layers.len());
        for (layer, g) in self.layers.iter_mut().zip(&grads.layers) {
            match g {
                ParamGrads::None => {}
                ParamGrads::PerBatch(tensors) => {
                    let mut params = layer.params_mut();
                    assert_eq!(params.len(), tensors.len(), "parameter count mismatch");
                    for (p, t) in params.iter_mut().zip(tensors) {
                        diva_tensor::add_scaled(p, t, -lr);
                    }
                }
                other => panic!("apply_update requires per-batch gradients, got {other:?}"),
            }
        }
    }
}

impl NetworkGrads {
    /// For per-example gradients: the squared L2 norm of each example's
    /// full (all-layer) gradient vector — Algorithm 1 line 22 — as the sum
    /// of the per-layer norms in layer order.
    ///
    /// Both `PerExample` (whose arena took each row's norm as the row was
    /// written) and `SqNorms` (DP-SGD(R)'s first pass) carry their norms
    /// already, so this only adds `B` numbers per layer.
    ///
    /// # Panics
    ///
    /// Panics if the gradients are per-batch, or per-example counts differ
    /// across layers.
    pub fn per_example_sq_norms(&self) -> Vec<f64> {
        let mut layers = self
            .layers
            .iter()
            .map(|g| match g {
                ParamGrads::None => &[],
                ParamGrads::PerExample(per_ex) => per_ex.sq_norms(),
                ParamGrads::SqNorms(n) => n.as_slice(),
                ParamGrads::PerBatch(_) => {
                    panic!("per-example norms requested from per-batch gradients")
                }
            })
            .filter(|norms| !norms.is_empty());
        let mut total = layers.next().map(<[f64]>::to_vec).unwrap_or_default();
        for norms in layers {
            assert_eq!(
                total.len(),
                norms.len(),
                "batch size mismatch across layers"
            );
            for (acc, n) in total.iter_mut().zip(norms) {
                *acc += n;
            }
        }
        total
    }

    /// Elementwise sum of two gradient sets (used by microbatch
    /// accumulation). Both must be per-batch.
    ///
    /// # Panics
    ///
    /// Panics on structural mismatch.
    pub fn accumulate(&mut self, other: &NetworkGrads) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            match (a, b) {
                (ParamGrads::None, ParamGrads::None) => {}
                (ParamGrads::PerBatch(xs), ParamGrads::PerBatch(ys)) => {
                    assert_eq!(xs.len(), ys.len());
                    for (x, y) in xs.iter_mut().zip(ys) {
                        x.add_assign(y);
                    }
                }
                (a, b) => panic!("cannot accumulate {a:?} with {b:?}"),
            }
        }
    }

    /// Reduces per-example gradients into per-batch gradients, scaling each
    /// example `i` by `weights[i]` first (weights of all-ones gives the
    /// plain sum). This is Algorithm 1 lines 23–24 without the noise: one
    /// `K = B` pass over each layer's arena — no clipped per-example copies
    /// are materialized. Each arena reduces through
    /// [`crate::PerExampleGrads::weighted_sum`]: column blocks across the
    /// shared pool, examples accumulated in order, so the result is
    /// bit-identical whatever the thread count. [`Network::clipped_sum`]
    /// gives the same bits without holding the arena.
    ///
    /// # Panics
    ///
    /// Panics if the gradients are not per-example or `weights` has the
    /// wrong length.
    pub fn weighted_reduce(&self, weights: &[f64]) -> NetworkGrads {
        let layers = self
            .layers
            .iter()
            .map(|g| match g {
                ParamGrads::None => ParamGrads::None,
                ParamGrads::PerExample(per_ex) => {
                    ParamGrads::PerBatch(per_ex.weighted_sum(weights))
                }
                other => panic!("weighted reduce requires per-example gradients, got {other:?}"),
            })
            .collect();
        NetworkGrads { layers }
    }

    /// Flattens per-batch gradients into one contiguous vector (layer order,
    /// parameter order, row-major). Useful for noise addition and tests.
    ///
    /// # Panics
    ///
    /// Panics if any layer gradient is not per-batch (or `None`).
    pub fn flatten_per_batch(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for g in &self.layers {
            match g {
                ParamGrads::None => {}
                ParamGrads::PerBatch(tensors) => {
                    for t in tensors {
                        out.extend_from_slice(t.data());
                    }
                }
                other => panic!("flatten_per_batch on non-per-batch gradients: {other:?}"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_tensor::{softmax_cross_entropy, DivaRng};

    fn mlp(rng: &mut DivaRng) -> Network {
        Network::new(vec![
            Layer::dense(6, 8, true, rng),
            Layer::relu(),
            Layer::dense(8, 4, true, rng),
        ])
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = DivaRng::seed_from_u64(12);
        let net = mlp(&mut rng);
        let x = Tensor::uniform(&[3, 6], -1.0, 1.0, &mut rng);
        let (y, caches) = net.forward(&x);
        assert_eq!(y.shape().dims(), &[3, 4]);
        let loss = softmax_cross_entropy(&y, &[0, 1, 2]);
        let grads = net.backward(&caches, &loss.grad_logits, GradMode::PerBatch);
        assert_eq!(grads.layers.len(), 3);
    }

    #[test]
    fn per_example_norms_match_explicit_computation() {
        let mut rng = DivaRng::seed_from_u64(13);
        let net = mlp(&mut rng);
        let x = Tensor::uniform(&[4, 6], -1.0, 1.0, &mut rng);
        let (y, caches) = net.forward(&x);
        let loss = softmax_cross_entropy(&y, &[0, 1, 2, 3]);
        let gex = net.backward(&caches, &loss.grad_logits, GradMode::PerExample);
        let gno = net.backward(&caches, &loss.grad_logits, GradMode::NormOnly);
        let a = gex.per_example_sq_norms();
        let b = gno.per_example_sq_norms();
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6 * x.max(1.0));
        }
    }

    #[test]
    fn weighted_reduce_with_ones_equals_per_batch() {
        let mut rng = DivaRng::seed_from_u64(14);
        let net = mlp(&mut rng);
        let x = Tensor::uniform(&[4, 6], -1.0, 1.0, &mut rng);
        let (y, caches) = net.forward(&x);
        let loss = softmax_cross_entropy(&y, &[0, 1, 2, 3]);
        let batch = net.backward(&caches, &loss.grad_logits, GradMode::PerBatch);
        let per_ex = net.backward(&caches, &loss.grad_logits, GradMode::PerExample);
        let reduced = per_ex.weighted_reduce(&[1.0; 4]);
        let a = batch.flatten_per_batch();
        let b = reduced.flatten_per_batch();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn sgd_update_decreases_loss() {
        let mut rng = DivaRng::seed_from_u64(15);
        let mut net = mlp(&mut rng);
        let x = Tensor::uniform(&[8, 6], -1.0, 1.0, &mut rng);
        let labels = vec![0usize, 1, 2, 3, 0, 1, 2, 3];
        let mut last = f64::INFINITY;
        for _ in 0..30 {
            let (y, caches) = net.forward(&x);
            let loss = softmax_cross_entropy(&y, &labels);
            let mut grad = loss.grad_logits.clone();
            grad.scale(1.0 / 8.0);
            let grads = net.backward(&caches, &grad, GradMode::PerBatch);
            net.apply_update(&grads, 0.5);
            last = loss.mean_loss;
        }
        assert!(last < 1.0, "loss failed to decrease: {last}");
    }

    #[test]
    fn cnn_pipeline_runs_end_to_end() {
        let mut rng = DivaRng::seed_from_u64(16);
        let net = Network::new(vec![
            Layer::conv2d(1, 4, 3, 1, 1, 8, 8, &mut rng),
            Layer::relu(),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::dense(4 * 4 * 4, 3, true, &mut rng),
        ]);
        let x = Tensor::uniform(&[2, 1, 8, 8], -1.0, 1.0, &mut rng);
        let (y, caches) = net.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 3]);
        let loss = softmax_cross_entropy(&y, &[0, 1]);
        let grads = net.backward(&caches, &loss.grad_logits, GradMode::PerExample);
        assert_eq!(grads.per_example_sq_norms().len(), 2);
    }
}

//! The closed set of layer types and the gradient-mode taxonomy.

use diva_tensor::Tensor;

use crate::conv_layer::{Conv2dCache, Conv2dLayer};
use crate::dense::{Dense, DenseCache};
use crate::embedding::{Embedding, EmbeddingCache};
use crate::lstm::{Lstm, LstmCache};
use crate::norm::{GroupNorm, GroupNormCache};
use crate::per_example::PerExampleGrads;
use crate::pool::{AvgPool2d, MaxPool2d, PoolCache};
use crate::simple::{
    Flatten, FlattenCache, Relu, ReluCache, Sigmoid, SigmoidCache, Tanh, TanhCache,
};
use diva_tensor::DivaRng;

/// How weight gradients are derived during backpropagation.
///
/// Mirrors the three algorithms characterized by the paper:
///
/// * [`GradMode::PerBatch`] — non-private SGD: one reduced gradient per
///   mini-batch (paper Figure 2(a)).
/// * [`GradMode::PerExample`] — vanilla DP-SGD: `B` separate weight
///   gradients that are later clipped and reduced (Figure 2(b),
///   Algorithm 1 lines 16–25), materialized as a `(B, P)` arena per
///   layer. This is the memory-hungry variant; the trainer derives the
///   same gradients a block of examples at a time instead
///   ([`crate::Network::clipped_sum`]).
/// * [`GradMode::NormOnly`] — the first pass of DP-SGD(R): per-example
///   gradients are formed transiently, their squared L2 norms accumulated,
///   and the gradients discarded (Algorithm 1 lines 28–42).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GradMode {
    /// One weight gradient per mini-batch (standard SGD).
    PerBatch,
    /// One weight gradient per example (vanilla DP-SGD).
    PerExample,
    /// Per-example gradient squared-norms only (DP-SGD(R) first pass).
    NormOnly,
}

/// Weight gradients produced by a layer's backward pass.
#[derive(Clone, Debug)]
pub enum ParamGrads {
    /// The layer has no trainable parameters.
    None,
    /// Reduced gradients, one tensor per parameter (same shapes as params).
    PerBatch(Vec<Tensor>),
    /// Per-example gradients in a `(B, P)` arena, with each example's
    /// squared norm taken as its row was written.
    PerExample(PerExampleGrads),
    /// Per-example squared L2 norms of this layer's weight gradient,
    /// `sq_norms[example]`.
    SqNorms(Vec<f64>),
}

impl ParamGrads {
    /// Returns the per-batch gradient tensors.
    ///
    /// # Panics
    ///
    /// Panics if the variant is not `PerBatch`.
    pub fn expect_per_batch(self) -> Vec<Tensor> {
        match self {
            ParamGrads::PerBatch(g) => g,
            ParamGrads::None => Vec::new(),
            other => panic!("expected per-batch gradients, got {other:?}"),
        }
    }
}

/// A parameter layer's row writer bound to what it reads: `write(i, row)`
/// writes example `i`'s gradient over `row`, overwriting all of it.
pub(crate) type RowWriter<'a> = Box<dyn Fn(usize, &mut [f32]) + Sync + 'a>;

fn row_writer<'a>(write: impl Fn(usize, &mut [f32]) + Sync + 'a) -> Option<RowWriter<'a>> {
    Some(Box::new(write))
}

/// The result of a layer backward pass: the gradient flowing to the
/// previous layer (when derived — see `grad_input`) and this layer's weight
/// gradients (per the requested [`GradMode`]).
#[derive(Clone, Debug)]
pub struct BackwardOutput {
    /// Gradient of the loss with respect to the layer input.
    ///
    /// **When is this `None`?** Exactly when the caller passed
    /// `need_input_grad = false` to [`Layer::backward_opt`] *and* the layer
    /// puts real work behind the flag (dense and convolution — for a first
    /// conv layer the input gradient is a whole `(B·P·Q, C_out, C_in·R·S)`
    /// GEMM plus a `col2im` of pure waste, since a first layer has no
    /// predecessor to feed). Cheap layers ignore the flag and return `Some`
    /// regardless; callers must treat `Some` under `need_input_grad =
    /// false` as equally valid and simply drop it, never rely on `None` as
    /// a signal. With `need_input_grad = true` (the [`Layer::backward`]
    /// default) this is always `Some`.
    pub grad_input: Option<Tensor>,
    /// The layer's weight gradients.
    pub grads: ParamGrads,
}

/// A neural-network layer.
///
/// The set of layers is closed (an enum rather than a trait object) so that
/// forward caches can be strongly typed and the whole network remains
/// `Clone`-able and inspectable — convenient for the double-backward pass of
/// DP-SGD(R).
#[derive(Clone, Debug)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(Dense),
    /// 2-D convolution.
    Conv2d(Conv2dLayer),
    /// Rectified linear unit.
    Relu(Relu),
    /// Flattens `(B, ...)` to `(B, features)`.
    Flatten(Flatten),
    /// Average pooling with square window.
    AvgPool2d(AvgPool2d),
    /// Max pooling with square window.
    MaxPool2d(MaxPool2d),
    /// Single-layer LSTM over `(B, T, input)` sequences.
    Lstm(Lstm),
    /// Group normalization (the BN replacement used in DP training).
    GroupNorm(GroupNorm),
    /// Embedding lookup over `(B, T)` token ids.
    Embedding(Embedding),
    /// Logistic sigmoid.
    Sigmoid(Sigmoid),
    /// Hyperbolic tangent.
    Tanh(Tanh),
}

/// Forward-pass state cached for the backward pass, strongly typed per layer.
#[derive(Clone, Debug)]
pub enum LayerCache {
    /// Cache for [`Dense`].
    Dense(DenseCache),
    /// Cache for [`Conv2dLayer`].
    Conv2d(Conv2dCache),
    /// Cache for [`Relu`].
    Relu(ReluCache),
    /// Cache for [`Flatten`].
    Flatten(FlattenCache),
    /// Cache for pooling layers.
    Pool(PoolCache),
    /// Cache for [`Lstm`].
    Lstm(LstmCache),
    /// Cache for [`GroupNorm`].
    GroupNorm(GroupNormCache),
    /// Cache for [`Embedding`].
    Embedding(EmbeddingCache),
    /// Cache for [`Sigmoid`].
    Sigmoid(SigmoidCache),
    /// Cache for [`Tanh`].
    Tanh(TanhCache),
}

impl Layer {
    /// Convenience constructor for a dense layer with Kaiming-uniform init.
    pub fn dense(input: usize, output: usize, bias: bool, rng: &mut DivaRng) -> Self {
        Layer::Dense(Dense::new(input, output, bias, rng))
    }

    /// Convenience constructor for a convolution layer.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut DivaRng,
    ) -> Self {
        Layer::Conv2d(Conv2dLayer::new(cin, cout, k, stride, pad, in_h, in_w, rng))
    }

    /// Convenience constructor for ReLU.
    pub fn relu() -> Self {
        Layer::Relu(Relu::new())
    }

    /// Convenience constructor for Flatten.
    pub fn flatten() -> Self {
        Layer::Flatten(Flatten::new())
    }

    /// Convenience constructor for average pooling.
    pub fn avg_pool2d(k: usize) -> Self {
        Layer::AvgPool2d(AvgPool2d::new(k))
    }

    /// Convenience constructor for max pooling.
    pub fn max_pool2d(k: usize) -> Self {
        Layer::MaxPool2d(MaxPool2d::new(k))
    }

    /// Convenience constructor for an LSTM layer.
    pub fn lstm(input: usize, hidden: usize, rng: &mut DivaRng) -> Self {
        Layer::Lstm(Lstm::new(input, hidden, rng))
    }

    /// Convenience constructor for group normalization.
    pub fn group_norm(channels: usize, groups: usize) -> Self {
        Layer::GroupNorm(GroupNorm::new(channels, groups))
    }

    /// Convenience constructor for an embedding table.
    pub fn embedding(vocab: usize, dim: usize, rng: &mut DivaRng) -> Self {
        Layer::Embedding(Embedding::new(vocab, dim, rng))
    }

    /// Convenience constructor for sigmoid.
    pub fn sigmoid() -> Self {
        Layer::Sigmoid(Sigmoid::new())
    }

    /// Convenience constructor for tanh.
    pub fn tanh() -> Self {
        Layer::Tanh(Tanh::new())
    }

    /// Runs the layer forward, returning the output and the cache needed for
    /// backpropagation.
    pub fn forward(&self, x: &Tensor) -> (Tensor, LayerCache) {
        match self {
            Layer::Dense(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::Dense(c))
            }
            Layer::Conv2d(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::Conv2d(c))
            }
            Layer::Relu(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::Relu(c))
            }
            Layer::Flatten(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::Flatten(c))
            }
            Layer::AvgPool2d(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::Pool(c))
            }
            Layer::MaxPool2d(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::Pool(c))
            }
            Layer::Lstm(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::Lstm(c))
            }
            Layer::GroupNorm(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::GroupNorm(c))
            }
            Layer::Embedding(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::Embedding(c))
            }
            Layer::Sigmoid(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::Sigmoid(c))
            }
            Layer::Tanh(l) => {
                let (y, c) = l.forward(x);
                (y, LayerCache::Tanh(c))
            }
        }
    }

    /// Runs the layer backward given the gradient of the loss with respect
    /// to the layer output. Always derives the input gradient; see
    /// [`Layer::backward_opt`] to skip it when it is dead.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not belong to this layer type.
    pub fn backward(
        &self,
        cache: &LayerCache,
        grad_out: &Tensor,
        mode: GradMode,
    ) -> BackwardOutput {
        self.backward_opt(cache, grad_out, mode, true)
    }

    /// Runs the layer backward, deriving the input gradient only when
    /// `need_input_grad` is set. [`crate::Network::backward`] clears it for
    /// the first layer, whose input gradient nobody consumes. Dense and
    /// convolution honor the flag (their input gradient is a whole GEMM);
    /// every other layer ignores it and returns `Some` regardless, which
    /// callers must treat as equally valid — see
    /// [`BackwardOutput::grad_input`] for the exact `None` contract.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not belong to this layer type.
    pub fn backward_opt(
        &self,
        cache: &LayerCache,
        grad_out: &Tensor,
        mode: GradMode,
        need_input_grad: bool,
    ) -> BackwardOutput {
        match (self, cache) {
            (Layer::Dense(l), LayerCache::Dense(c)) => {
                l.backward_opt(c, grad_out, mode, need_input_grad)
            }
            (Layer::Conv2d(l), LayerCache::Conv2d(c)) => {
                l.backward_opt(c, grad_out, mode, need_input_grad)
            }
            (Layer::Relu(l), LayerCache::Relu(c)) => l.backward(c, grad_out),
            (Layer::Flatten(l), LayerCache::Flatten(c)) => l.backward(c, grad_out),
            (Layer::AvgPool2d(l), LayerCache::Pool(c)) => l.backward(c, grad_out),
            (Layer::MaxPool2d(l), LayerCache::Pool(c)) => l.backward(c, grad_out),
            (Layer::Lstm(l), LayerCache::Lstm(c)) => l.backward(c, grad_out, mode),
            (Layer::GroupNorm(l), LayerCache::GroupNorm(c)) => l.backward(c, grad_out, mode),
            (Layer::Embedding(l), LayerCache::Embedding(c)) => l.backward(c, grad_out, mode),
            (Layer::Sigmoid(l), LayerCache::Sigmoid(c)) => l.backward(c, grad_out),
            (Layer::Tanh(l), LayerCache::Tanh(c)) => l.backward(c, grad_out),
            _ => panic!("layer/cache type mismatch in backward"),
        }
    }

    /// The data-gradient half of [`Layer::backward_opt`], with exactly its
    /// calls: the input gradient (under the same `need_input_grad`
    /// contract) and, for a parameter layer, its row writer — the one the
    /// `PerExample` arena and the `NormOnly` scratch rows run — holding what
    /// it reads (the layer's output gradient; LSTM's gate gradients `dz_t`;
    /// GroupNorm's per-example `dγ`, `dβ`). No weight gradient is derived.
    pub(crate) fn backward_data<'a>(
        &'a self,
        cache: &'a LayerCache,
        grad_out: Tensor,
        need_input_grad: bool,
    ) -> (Option<Tensor>, Option<RowWriter<'a>>) {
        match (self, cache) {
            (Layer::Dense(l), LayerCache::Dense(c)) => (
                l.grad_input(&grad_out, need_input_grad),
                row_writer(move |i, row| l.write_example(c, &grad_out, i, row)),
            ),
            (Layer::Conv2d(l), LayerCache::Conv2d(c)) => (
                l.grad_input(&grad_out, need_input_grad),
                row_writer(move |i, row| l.write_example(c, &grad_out, i, row)),
            ),
            (Layer::Embedding(l), LayerCache::Embedding(c)) => (
                Some(l.grad_input(c, &grad_out)),
                row_writer(move |i, row| l.write_example(c, &grad_out, i, row)),
            ),
            (Layer::Lstm(l), LayerCache::Lstm(c)) => {
                let (grad_x, dz_per_t) = l.bptt(c, &grad_out);
                let write = move |i, row: &mut [f32]| l.write_example(c, &dz_per_t, i, row);
                (Some(grad_x), row_writer(write))
            }
            (Layer::GroupNorm(l), LayerCache::GroupNorm(c)) => {
                let (grad_x, dgammas, dbetas) = l.backward_data(c, &grad_out);
                let write = move |i, row: &mut [f32]| l.write_example(&dgammas, &dbetas, i, row);
                (Some(grad_x), row_writer(write))
            }
            _ => {
                let out = self.backward_opt(cache, &grad_out, GradMode::PerBatch, need_input_grad);
                (out.grad_input, None)
            }
        }
    }

    /// Immutable views of the layer's trainable parameters.
    pub fn params(&self) -> Vec<&Tensor> {
        match self {
            Layer::Dense(l) => l.params(),
            Layer::Conv2d(l) => l.params(),
            Layer::Lstm(l) => l.params(),
            Layer::GroupNorm(l) => l.params(),
            Layer::Embedding(l) => l.params(),
            _ => Vec::new(),
        }
    }

    /// Mutable views of the layer's trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            Layer::Dense(l) => l.params_mut(),
            Layer::Conv2d(l) => l.params_mut(),
            Layer::Lstm(l) => l.params_mut(),
            Layer::GroupNorm(l) => l.params_mut(),
            Layer::Embedding(l) => l.params_mut(),
            _ => Vec::new(),
        }
    }

    /// Total number of trainable scalars in the layer.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Layer::Dense(l) => format!("Dense({}->{})", l.input(), l.output()),
            Layer::Conv2d(l) => format!(
                "Conv2d({}x{}x{}, cout={})",
                l.geom().cin,
                l.geom().k,
                l.geom().k,
                l.geom().cout
            ),
            Layer::Relu(_) => "ReLU".to_string(),
            Layer::Flatten(_) => "Flatten".to_string(),
            Layer::AvgPool2d(l) => format!("AvgPool2d({})", l.k()),
            Layer::MaxPool2d(l) => format!("MaxPool2d({})", l.k()),
            Layer::Lstm(l) => format!("LSTM({}->{})", l.input(), l.hidden()),
            Layer::GroupNorm(l) => format!("GroupNorm({}, g={})", l.channels(), l.groups()),
            Layer::Embedding(l) => format!("Embedding({}x{})", l.vocab(), l.dim()),
            Layer::Sigmoid(_) => "Sigmoid".to_string(),
            Layer::Tanh(_) => "Tanh".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateless_layers_report_no_params() {
        assert_eq!(Layer::relu().param_count(), 0);
        assert_eq!(Layer::flatten().param_count(), 0);
        assert_eq!(Layer::avg_pool2d(2).param_count(), 0);
    }

    #[test]
    fn dense_param_count() {
        let mut rng = DivaRng::seed_from_u64(0);
        let l = Layer::dense(10, 4, true, &mut rng);
        assert_eq!(l.param_count(), 10 * 4 + 4);
        let l = Layer::dense(10, 4, false, &mut rng);
        assert_eq!(l.param_count(), 40);
    }

    #[test]
    #[should_panic(expected = "layer/cache type mismatch")]
    fn mismatched_cache_panics() {
        let mut rng = DivaRng::seed_from_u64(0);
        let dense = Layer::dense(2, 2, false, &mut rng);
        let relu = Layer::relu();
        let x = Tensor::zeros(&[1, 2]);
        let (_, cache) = relu.forward(&x);
        let g = Tensor::zeros(&[1, 2]);
        let _ = dense.backward(&cache, &g, GradMode::PerBatch);
    }
}

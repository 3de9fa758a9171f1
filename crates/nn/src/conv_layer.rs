//! 2-D convolution layer (lowered to GEMM via `im2col`).
//!
//! Per the paper's Figure 6, the forward GEMM is
//! `(M, K, N) = (B·P·Q, C_in·R·S, C_out)`, the per-batch weight-gradient
//! GEMM is `(C_in·R·S, B·P·Q, C_out)`, and the per-example weight gradient
//! is a `(C_in·R·S, P·Q, C_out)` GEMM per example — the small-K shape that
//! underutilizes systolic arrays.
//!
//! This layer runs the **implicit-lowering** backward: the forward keeps
//! the layer's NCHW input in a [`ConvInput`], and every GEMM reads the
//! lowered patch operand from that input without forming it — the forward
//! while it packs it, the per-batch, per-example and norm-only weight
//! gradients in place, row by row of the padded input.
//! No patch matrix is stored: DP-SGD(R)'s two backward passes share the
//! same forward cache, which holds the input (the size of one activation),
//! not its 9×-expanded `im2col`. The per-example results are bit-identical
//! to the naive per-example `im2col` path (`tests/conv_fused_parity.rs`).
//!
//! Activations and gradients stay NCHW: the GEMMs read and write them in
//! place, one example per pool task (see `diva_tensor`'s `conv` module),
//! so no pass transposes its gradient to rows and the forward writes its
//! output without a reorder. The bias is added to each example's output
//! after its GEMM, and its per-batch gradient is split over the shared
//! pool by channel; both are bitwise the serial loops at any thread
//! count.

use diva_tensor::{conv2d_backward_data, parallel, Conv2dGeom, ConvInput, DivaRng, Tensor};

use crate::layer::{BackwardOutput, GradMode, ParamGrads};
use crate::per_example::{self, PerExampleGrads};

/// A 2-D convolution layer with square filters and optional bias.
#[derive(Clone, Debug)]
pub struct Conv2dLayer {
    weight: Tensor,
    bias: Option<Tensor>,
    geom: Conv2dGeom,
}

/// Forward cache for [`Conv2dLayer`]: the layer's input batch, read by
/// every backward pass that shares this cache.
#[derive(Clone, Debug)]
pub struct Conv2dCache {
    input: ConvInput,
}

impl Conv2dLayer {
    /// Creates a convolution layer with Kaiming-uniform initialization and
    /// a bias vector.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut DivaRng,
    ) -> Self {
        let geom = Conv2dGeom::new(cin, cout, k, stride, pad, in_h, in_w);
        let fan_in = (cin * k * k) as f32;
        let bound = (6.0 / fan_in).sqrt();
        Self {
            weight: Tensor::uniform(&[cout, cin, k, k], -bound, bound, rng),
            bias: Some(Tensor::zeros(&[cout])),
            geom,
        }
    }

    /// The convolution geometry.
    pub fn geom(&self) -> &Conv2dGeom {
        &self.geom
    }

    /// Runs the layer forward on `(B, C_in, H, W)`.
    ///
    /// # Panics
    ///
    /// Panics if the input does not match the layer geometry.
    pub fn forward(&self, x: &Tensor) -> (Tensor, Conv2dCache) {
        let input = ConvInput::new(x.clone(), &self.geom);
        let y = input.forward(&self.weight, self.bias.as_ref());
        (y, Conv2dCache { input })
    }

    /// Backward pass with the input gradient always derived; see
    /// [`GradMode`] and [`Conv2dLayer::backward_opt`].
    pub fn backward(
        &self,
        cache: &Conv2dCache,
        grad_out: &Tensor,
        mode: GradMode,
    ) -> BackwardOutput {
        self.backward_opt(cache, grad_out, mode, true)
    }

    /// Backward pass; derives the input gradient only when
    /// `need_input_grad` is set (a first-layer convolution's input gradient
    /// is dead work — a full `(B·P·Q, C_out, C_in·R·S)` GEMM plus its fold).
    ///
    /// The weight-gradient GEMMs pack each example's NCHW slice of the
    /// output gradient and read the input kept in the forward in place,
    /// lowered as they read it.
    pub fn backward_opt(
        &self,
        cache: &Conv2dCache,
        grad_out: &Tensor,
        mode: GradMode,
        need_input_grad: bool,
    ) -> BackwardOutput {
        let b = grad_out.shape().dim(0);
        assert_eq!(
            b,
            cache.input.batch(),
            "gradient batch does not match the cached forward batch"
        );
        let grads = match mode {
            GradMode::PerBatch => {
                let gw = cache.input.backward_weight_batch(grad_out);
                let mut out = vec![gw];
                if self.bias.is_some() {
                    out.push(bias_grad(grad_out));
                }
                ParamGrads::PerBatch(out)
            }
            // Per-example derivation is independent across the batch
            // (Algorithm 1 lines 16–25): the `(C_in·R·S, P·Q, C_out)`
            // per-example GEMMs fan out over the shared pool, each reading
            // its example's lowered input in place and writing straight
            // into the example's arena (or scratch) row.
            GradMode::PerExample => {
                ParamGrads::PerExample(PerExampleGrads::build(b, &self.params(), |i, row| {
                    self.write_example(cache, grad_out, i, row)
                }))
            }
            GradMode::NormOnly => {
                ParamGrads::SqNorms(per_example::sq_norms(b, &self.params(), |i, row| {
                    self.write_example(cache, grad_out, i, row)
                }))
            }
        };
        let grad_input =
            need_input_grad.then(|| conv2d_backward_data(grad_out, &self.weight, &self.geom));
        BackwardOutput { grad_input, grads }
    }

    /// Writes example `i`'s `[G(W), G(b)]` over a per-example row.
    fn write_example(&self, cache: &Conv2dCache, grad_out: &Tensor, i: usize, row: &mut [f32]) {
        let (weight, bias) = row.split_at_mut(self.geom.weight_len());
        cache.input.backward_weight_example(grad_out, i, weight);
        if self.bias.is_some() {
            let (p, q) = self.geom.out_hw();
            let len = self.geom.cout * p * q;
            bias_grad_example(&grad_out.data()[i * len..(i + 1) * len], bias);
        }
    }

    /// Immutable parameter views.
    pub fn params(&self) -> Vec<&Tensor> {
        let mut p = vec![&self.weight];
        if let Some(b) = &self.bias {
            p.push(b);
        }
        p
    }

    /// Mutable parameter views.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            p.push(b);
        }
        p
    }
}

/// Bias gradient: sums `(N, C, P, Q)` over batch and spatial dims to `(C,)`,
/// one pool task per channel. Each channel sums every example's spatial
/// block in ascending order and adds the block sums in example order.
fn bias_grad(grad_out: &Tensor) -> Tensor {
    let dims = grad_out.shape().dims();
    let (n, c, p, q) = (dims[0], dims[1], dims[2], dims[3]);
    let mut out = Tensor::zeros(&[c]);
    let gv = grad_out.data();
    parallel::par_chunks_mut(out.data_mut(), 1, |ci, acc| {
        for ni in 0..n {
            let base = (ni * c + ci) * p * q;
            let s: f32 = gv[base..base + p * q].iter().sum();
            acc[0] += s;
        }
    });
    out
}

/// Per-example bias gradient from one example's `(C_out, P, Q)` gradient
/// image, written over `out`: each channel sums its `P·Q` plane in
/// ascending spatial order, starting from +0.0 — the order of
/// [`bias_grad`] on the sliced example, so the result is bit-identical to
/// the naive path.
fn bias_grad_example(image: &[f32], out: &mut [f32]) {
    let pq = image.len() / out.len().max(1);
    for (acc, plane) in out.iter_mut().zip(image.chunks_exact(pq.max(1))) {
        *acc = plane.iter().fold(0.0, |s, &v| s + v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_example_grads_sum_to_per_batch() {
        let mut rng = DivaRng::seed_from_u64(5);
        let layer = Conv2dLayer::new(2, 3, 3, 1, 1, 6, 6, &mut rng);
        let x = Tensor::uniform(&[3, 2, 6, 6], -1.0, 1.0, &mut rng);
        let (y, cache) = layer.forward(&x);
        let g = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);
        let batch = layer
            .backward(&cache, &g, GradMode::PerBatch)
            .grads
            .expect_per_batch();
        let per_ex = match layer.backward(&cache, &g, GradMode::PerExample).grads {
            ParamGrads::PerExample(p) => p.examples(),
            other => panic!("unexpected {other:?}"),
        };
        for (pi, batch_grad) in batch.iter().enumerate() {
            let mut sum = Tensor::zeros(batch_grad.shape().dims());
            for ex in &per_ex {
                sum.add_assign(&ex[pi]);
            }
            assert!(sum.max_abs_diff(batch_grad) < 1e-3);
        }
    }

    #[test]
    fn bias_changes_output_by_constant() {
        let mut rng = DivaRng::seed_from_u64(6);
        let mut layer = Conv2dLayer::new(1, 1, 3, 1, 1, 4, 4, &mut rng);
        let x = Tensor::uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let (y0, _) = layer.forward(&x);
        if let Some(b) = &mut layer.bias {
            b.data_mut()[0] = 2.5;
        }
        let (y1, _) = layer.forward(&x);
        let mut diff = y1;
        diff.sub_assign(&y0);
        assert!(diff.data().iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }

    #[test]
    fn norm_only_is_consistent() {
        let mut rng = DivaRng::seed_from_u64(7);
        let layer = Conv2dLayer::new(2, 2, 3, 2, 1, 6, 6, &mut rng);
        let x = Tensor::uniform(&[2, 2, 6, 6], -1.0, 1.0, &mut rng);
        let (y, cache) = layer.forward(&x);
        let g = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);
        let norms = match layer.backward(&cache, &g, GradMode::NormOnly).grads {
            ParamGrads::SqNorms(n) => n,
            other => panic!("unexpected {other:?}"),
        };
        let per_ex = match layer.backward(&cache, &g, GradMode::PerExample).grads {
            ParamGrads::PerExample(p) => p.examples(),
            other => panic!("unexpected {other:?}"),
        };
        for (i, ex) in per_ex.iter().enumerate() {
            let sq: f64 = ex.iter().map(Tensor::squared_norm).sum();
            assert!((sq - norms[i]).abs() / sq.max(1.0) < 1e-5);
        }
    }

    #[test]
    fn skipped_input_grad_is_none_and_grads_match() {
        let mut rng = DivaRng::seed_from_u64(8);
        let layer = Conv2dLayer::new(2, 3, 3, 1, 1, 5, 5, &mut rng);
        let x = Tensor::uniform(&[2, 2, 5, 5], -1.0, 1.0, &mut rng);
        let (y, cache) = layer.forward(&x);
        let g = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);
        let full = layer.backward_opt(&cache, &g, GradMode::NormOnly, true);
        let skipped = layer.backward_opt(&cache, &g, GradMode::NormOnly, false);
        assert!(full.grad_input.is_some());
        assert!(skipped.grad_input.is_none());
        let (ParamGrads::SqNorms(a), ParamGrads::SqNorms(b)) = (&full.grads, &skipped.grads) else {
            panic!("expected norms");
        };
        assert_eq!(a, b, "skipping the input gradient changed the norms");
    }
}

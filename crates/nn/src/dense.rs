//! Fully-connected (MLP) layer.
//!
//! The forward GEMM is `(M, K, N) = (B, I, O)`; the per-batch weight
//! gradient GEMM is `(I, B, O)`; the per-example weight gradient is the
//! degenerate `(I, 1, O)` GEMM — an outer product — exactly the paper's
//! Figure 6 "MLP layer" row. That K=1 shape is the pathological case for
//! weight-stationary systolic arrays that motivates DiVa.

use diva_tensor::{matmul, matmul_nt, matmul_tn, parallel, sq_norm, DivaRng, Tensor};

use crate::layer::{BackwardOutput, GradMode, ParamGrads};
use crate::per_example::PerExampleGrads;

/// A fully-connected layer computing `Y = X·W (+ b)`.
///
/// `W` has shape `(input, output)`; the optional bias has shape `(output,)`.
#[derive(Clone, Debug)]
pub struct Dense {
    weight: Tensor,
    bias: Option<Tensor>,
    input: usize,
    output: usize,
}

/// Forward cache for [`Dense`]: the layer input.
#[derive(Clone, Debug)]
pub struct DenseCache {
    x: Tensor,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform initialized weights.
    pub fn new(input: usize, output: usize, bias: bool, rng: &mut DivaRng) -> Self {
        let bound = (6.0 / input as f32).sqrt();
        Self {
            weight: Tensor::uniform(&[input, output], -bound, bound, rng),
            bias: bias.then(|| Tensor::zeros(&[output])),
            input,
            output,
        }
    }

    /// Input feature count.
    pub fn input(&self) -> usize {
        self.input
    }

    /// Output feature count.
    pub fn output(&self) -> usize {
        self.output
    }

    /// Runs the layer forward on `(B, input)`, producing `(B, output)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `(B, input)`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, DenseCache) {
        let (_, features) = x.dims2();
        assert_eq!(
            features, self.input,
            "Dense expects {} input features, got {features}",
            self.input
        );
        let mut y = matmul(x, &self.weight);
        if let Some(b) = &self.bias {
            let (rows, cols) = y.dims2();
            let yv = y.data_mut();
            for r in 0..rows {
                for c in 0..cols {
                    yv[r * cols + c] += b.data()[c];
                }
            }
        }
        (y, DenseCache { x: x.clone() })
    }

    /// Backward pass with the input gradient always derived. See
    /// [`GradMode`] for the three gradient flavours.
    pub fn backward(
        &self,
        cache: &DenseCache,
        grad_out: &Tensor,
        mode: GradMode,
    ) -> BackwardOutput {
        self.backward_opt(cache, grad_out, mode, true)
    }

    /// Backward pass; skips the `(B, O, I)` activation-gradient GEMM when
    /// `need_input_grad` is `false` (dead work for a network's first layer).
    pub fn backward_opt(
        &self,
        cache: &DenseCache,
        grad_out: &Tensor,
        mode: GradMode,
        need_input_grad: bool,
    ) -> BackwardOutput {
        let b = grad_out.shape().dim(0);
        let grad_input = self.grad_input(grad_out, need_input_grad);
        let grads = match mode {
            GradMode::PerBatch => {
                // G(W) = Xᵀ × G(Y): (I, B, O) GEMM; K = B reduces over the batch.
                let gw = matmul_tn(&cache.x, grad_out);
                let mut out = vec![gw];
                if self.bias.is_some() {
                    out.push(column_sums(grad_out));
                }
                ParamGrads::PerBatch(out)
            }
            GradMode::PerExample => {
                ParamGrads::PerExample(PerExampleGrads::build(b, &self.params(), |i, row| {
                    self.write_example(cache, grad_out, i, row)
                }))
            }
            GradMode::NormOnly => {
                // Goodfellow's identity: the per-example dense weight
                // gradient is the rank-1 outer product `x_i ⊗ g_i`, so
                // `‖x_i ⊗ g_i‖² = ‖x_i‖²·‖g_i‖²` — no gradient needs to be
                // materialized at all, which is the whole point of the
                // DP-SGD(R) first pass (paper Algorithm 1 lines 28–42).
                let has_bias = self.bias.is_some();
                let norms = parallel::par_map(b, |i| {
                    let sx = sq_norm(cache.x.row(i));
                    let sg = sq_norm(grad_out.row(i));
                    sx * sg + if has_bias { sg } else { 0.0 }
                });
                ParamGrads::SqNorms(norms)
            }
        };
        BackwardOutput { grad_input, grads }
    }

    /// The activation-gradient GEMM `G(X) = G(Y) × Wᵀ`, when
    /// `need_input_grad` is set.
    pub(crate) fn grad_input(&self, grad_out: &Tensor, need_input_grad: bool) -> Option<Tensor> {
        let (_, o) = grad_out.dims2();
        assert_eq!(o, self.output, "gradient feature mismatch");
        need_input_grad.then(|| matmul_nt(grad_out, &self.weight))
    }

    /// Writes example `i`'s gradient over a per-example row: `x_i ⊗ g_i` —
    /// the `(I, 1, O)` GEMM of the paper's Figure 6, one product per
    /// element — then `g_i` for the bias.
    pub(crate) fn write_example(
        &self,
        cache: &DenseCache,
        grad_out: &Tensor,
        i: usize,
        row: &mut [f32],
    ) {
        let g = grad_out.row(i);
        let (weight, bias) = row.split_at_mut(self.input * self.output);
        for (dst, &x) in weight.chunks_exact_mut(self.output).zip(cache.x.row(i)) {
            for (d, &gv) in dst.iter_mut().zip(g) {
                *d = x * gv;
            }
        }
        if self.bias.is_some() {
            bias.copy_from_slice(g);
        }
    }

    /// Immutable parameter views (`[weight]` or `[weight, bias]`).
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

/// Sums a `(B, O)` tensor over rows, producing `(O,)`.
fn column_sums(t: &Tensor) -> Tensor {
    let (b, o) = t.dims2();
    let mut out = Tensor::zeros(&[o]);
    for i in 0..b {
        for (acc, &v) in out.data_mut().iter_mut().zip(t.row(i)) {
            *acc += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(rng: &mut DivaRng) -> (Dense, Tensor, Tensor) {
        let layer = Dense::new(5, 3, true, rng);
        let x = Tensor::uniform(&[4, 5], -1.0, 1.0, rng);
        let g = Tensor::uniform(&[4, 3], -1.0, 1.0, rng);
        (layer, x, g)
    }

    #[test]
    fn per_example_grads_sum_to_per_batch() {
        let mut rng = DivaRng::seed_from_u64(1);
        let (layer, x, g) = make(&mut rng);
        let (_, cache) = layer.forward(&x);
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
            assert!(
                sum.max_abs_diff(batch_grad) < 1e-4,
                "per-example grads do not reduce to per-batch for param {pi}"
            );
        }
    }

    #[test]
    fn norm_only_matches_per_example_norms() {
        let mut rng = DivaRng::seed_from_u64(2);
        let (layer, x, g) = make(&mut rng);
        let (_, cache) = layer.forward(&x);
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
            assert!((sq - norms[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = DivaRng::seed_from_u64(3);
        let mut layer = Dense::new(4, 2, true, &mut rng);
        let x = Tensor::uniform(&[3, 4], -1.0, 1.0, &mut rng);
        // Loss = sum(Y).
        let (y0, cache) = layer.forward(&x);
        let g = Tensor::full(y0.shape().dims(), 1.0);
        let grads = layer
            .backward(&cache, &g, GradMode::PerBatch)
            .grads
            .expect_per_batch();
        let eps = 1e-3;
        for idx in [0usize, 3, 7] {
            let orig = layer.weight.data()[idx];
            layer.weight.data_mut()[idx] = orig + eps;
            let up = layer.forward(&x).0.sum();
            layer.weight.data_mut()[idx] = orig - eps;
            let dn = layer.forward(&x).0.sum();
            layer.weight.data_mut()[idx] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            assert!((fd - f64::from(grads[0].data()[idx])).abs() < 1e-2);
        }
        // Bias gradient for loss=sum is the batch size per output unit.
        assert!(grads[1].data().iter().all(|&v| (v - 3.0).abs() < 1e-4));
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = DivaRng::seed_from_u64(4);
        let layer = Dense::new(4, 2, false, &mut rng);
        let mut x = Tensor::uniform(&[2, 4], -1.0, 1.0, &mut rng);
        let (y0, cache) = layer.forward(&x);
        let g = Tensor::full(y0.shape().dims(), 1.0);
        let gx = layer
            .backward(&cache, &g, GradMode::PerBatch)
            .grad_input
            .expect("input gradient requested");
        let eps = 1e-3;
        for idx in [0usize, 5] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let up = layer.forward(&x).0.sum();
            x.data_mut()[idx] = orig - eps;
            let dn = layer.forward(&x).0.sum();
            x.data_mut()[idx] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            assert!((fd - f64::from(gx.data()[idx])).abs() < 1e-2);
        }
    }
}

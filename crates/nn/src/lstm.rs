//! Single-layer LSTM with full backpropagation-through-time and
//! per-example gradient support.
//!
//! The paper's Figure 6 classifies LSTM weight GEMMs as "MLP layer with
//! time-series input": the per-example weight gradient of example `i` is
//! `Σ_t x_t[i] ⊗ dz_t[i]`, a `(M, K, N) = (I, L, 4H)` GEMM whose K
//! dimension is the sequence length `L` — independent of the batch size,
//! which is why DP-SGD's per-example gradients underutilize systolic arrays.
//!
//! Gate layout: the fused gate pre-activation `z` has width `4H` split as
//! `[input gate i | forget gate f | cell candidate g | output gate o]`.

// Indexed loops below mirror hardware/tensor coordinates; iterator
// rewrites would obscure the (row, column, timestep) structure.
#![allow(clippy::needless_range_loop)]

use diva_tensor::{matmul, matmul_nt, matmul_tn, outer_product_accumulate, DivaRng, Tensor};

use crate::layer::{BackwardOutput, GradMode, ParamGrads};
use crate::per_example::{self, PerExampleGrads};

/// A single-layer LSTM mapping `(B, T, input)` to the hidden-state sequence
/// `(B, T, hidden)`. Initial hidden and cell states are zero.
#[derive(Clone, Debug)]
pub struct Lstm {
    w_ih: Tensor, // (input, 4*hidden)
    w_hh: Tensor, // (hidden, 4*hidden)
    bias: Tensor, // (4*hidden,)
    input: usize,
    hidden: usize,
}

/// Forward cache for [`Lstm`]: everything BPTT needs.
#[derive(Clone, Debug)]
pub struct LstmCache {
    /// Input sequence `(B, T, I)`.
    x: Tensor,
    /// Hidden states `h_0..h_T`, each `(B, H)`; `h_0` is zeros.
    h: Vec<Tensor>,
    /// Cell states `c_0..c_T`, each `(B, H)`; `c_0` is zeros.
    c: Vec<Tensor>,
    /// Post-activation gates `(i, f, g, o)` per timestep, each `(B, H)`.
    gates: Vec<[Tensor; 4]>,
    /// `tanh(c_t)` per timestep, each `(B, H)`.
    tanh_c: Vec<Tensor>,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Lstm {
    /// Creates an LSTM with uniform `±1/√hidden` initialization (the PyTorch
    /// default) and forget-gate bias of 1.
    pub fn new(input: usize, hidden: usize, rng: &mut DivaRng) -> Self {
        let bound = 1.0 / (hidden as f32).sqrt();
        let mut bias = Tensor::zeros(&[4 * hidden]);
        // Forget-gate bias init of 1.0 stabilizes early training.
        for v in &mut bias.data_mut()[hidden..2 * hidden] {
            *v = 1.0;
        }
        Self {
            w_ih: Tensor::uniform(&[input, 4 * hidden], -bound, bound, rng),
            w_hh: Tensor::uniform(&[hidden, 4 * hidden], -bound, bound, rng),
            bias,
            input,
            hidden,
        }
    }

    /// Input feature count.
    pub fn input(&self) -> usize {
        self.input
    }

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the LSTM over a `(B, T, input)` sequence, returning the hidden
    /// state sequence `(B, T, hidden)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 3 with the expected feature width.
    pub fn forward(&self, x: &Tensor) -> (Tensor, LstmCache) {
        let dims = x.shape().dims();
        assert_eq!(dims.len(), 3, "LSTM expects (B, T, I), got {}", x.shape());
        let (b, t_len, i_dim) = (dims[0], dims[1], dims[2]);
        assert_eq!(i_dim, self.input, "LSTM input width mismatch");
        let h_dim = self.hidden;

        let mut h = vec![Tensor::zeros(&[b, h_dim])];
        let mut c = vec![Tensor::zeros(&[b, h_dim])];
        let mut gates = Vec::with_capacity(t_len);
        let mut tanh_c = Vec::with_capacity(t_len);
        let mut output = Tensor::zeros(&[b, t_len, h_dim]);

        for t in 0..t_len {
            let x_t = time_slice(x, t);
            // z = x_t W_ih + h_{t-1} W_hh + b : (B, 4H)
            let mut z = matmul(&x_t, &self.w_ih);
            z.add_assign(&matmul(&h[t], &self.w_hh));
            {
                let zv = z.data_mut();
                for r in 0..b {
                    for col in 0..4 * h_dim {
                        zv[r * 4 * h_dim + col] += self.bias.data()[col];
                    }
                }
            }
            let mut gi = Tensor::zeros(&[b, h_dim]);
            let mut gf = Tensor::zeros(&[b, h_dim]);
            let mut gg = Tensor::zeros(&[b, h_dim]);
            let mut go = Tensor::zeros(&[b, h_dim]);
            {
                let zv = z.data();
                for r in 0..b {
                    for j in 0..h_dim {
                        gi.data_mut()[r * h_dim + j] = sigmoid(zv[r * 4 * h_dim + j]);
                        gf.data_mut()[r * h_dim + j] = sigmoid(zv[r * 4 * h_dim + h_dim + j]);
                        gg.data_mut()[r * h_dim + j] = zv[r * 4 * h_dim + 2 * h_dim + j].tanh();
                        go.data_mut()[r * h_dim + j] = sigmoid(zv[r * 4 * h_dim + 3 * h_dim + j]);
                    }
                }
            }
            // c_t = f ⊙ c_{t-1} + i ⊙ g ; h_t = o ⊙ tanh(c_t)
            let mut c_t = Tensor::zeros(&[b, h_dim]);
            let mut th = Tensor::zeros(&[b, h_dim]);
            let mut h_t = Tensor::zeros(&[b, h_dim]);
            for idx in 0..b * h_dim {
                let cv = gf.data()[idx] * c[t].data()[idx] + gi.data()[idx] * gg.data()[idx];
                c_t.data_mut()[idx] = cv;
                let tv = cv.tanh();
                th.data_mut()[idx] = tv;
                h_t.data_mut()[idx] = go.data()[idx] * tv;
            }
            // Write h_t into the output sequence.
            for r in 0..b {
                let dst = (r * t_len + t) * h_dim;
                let src = r * h_dim;
                output.data_mut()[dst..dst + h_dim].copy_from_slice(&h_t.data()[src..src + h_dim]);
            }
            gates.push([gi, gf, gg, go]);
            tanh_c.push(th);
            c.push(c_t);
            h.push(h_t);
        }

        (
            output,
            LstmCache {
                x: x.clone(),
                h,
                c,
                gates,
                tanh_c,
            },
        )
    }

    /// BPTT backward pass; `grad_out` is `(B, T, hidden)` (gradients with
    /// respect to every hidden state output).
    pub fn backward(&self, cache: &LstmCache, grad_out: &Tensor, mode: GradMode) -> BackwardOutput {
        let (grad_x, dz_per_t) = self.bptt(cache, grad_out);
        let dims = cache.x.shape().dims();
        let (b, t_len, i_dim) = (dims[0], dims[1], dims[2]);
        let h_dim = self.hidden;
        let grads = match mode {
            GradMode::PerBatch => {
                let mut gw_ih = Tensor::zeros(&[i_dim, 4 * h_dim]);
                let mut gw_hh = Tensor::zeros(&[h_dim, 4 * h_dim]);
                let mut gb = Tensor::zeros(&[4 * h_dim]);
                for t in 0..t_len {
                    let x_t = time_slice(&cache.x, t);
                    gw_ih.add_assign(&matmul_tn(&x_t, &dz_per_t[t]));
                    gw_hh.add_assign(&matmul_tn(&cache.h[t], &dz_per_t[t]));
                    for r in 0..b {
                        for (acc, &v) in gb.data_mut().iter_mut().zip(dz_per_t[t].row(r)) {
                            *acc += v;
                        }
                    }
                }
                ParamGrads::PerBatch(vec![gw_ih, gw_hh, gb])
            }
            GradMode::PerExample => {
                ParamGrads::PerExample(PerExampleGrads::build(b, &self.params(), |r, row| {
                    self.write_example(cache, &dz_per_t, r, row)
                }))
            }
            GradMode::NormOnly => {
                ParamGrads::SqNorms(per_example::sq_norms(b, &self.params(), |r, row| {
                    self.write_example(cache, &dz_per_t, r, row)
                }))
            }
        };

        BackwardOutput {
            grad_input: Some(grad_x),
            grads,
        }
    }

    /// Backpropagation through time: the input gradient `(B, T, I)` and the
    /// gate pre-activation gradient `dz_t`, one `(B, 4H)` tensor per
    /// timestep in ascending `t` — what the row writer reads.
    pub(crate) fn bptt(&self, cache: &LstmCache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let dims = cache.x.shape().dims();
        let (b, t_len, i_dim) = (dims[0], dims[1], dims[2]);
        let h_dim = self.hidden;
        assert_eq!(
            grad_out.shape().dims(),
            &[b, t_len, h_dim],
            "LSTM gradient shape mismatch"
        );

        let mut grad_x = Tensor::zeros(&[b, t_len, i_dim]);
        let mut dh_next = Tensor::zeros(&[b, h_dim]);
        let mut dc_next = Tensor::zeros(&[b, h_dim]);
        // dz per timestep, kept for per-example gradient reconstruction.
        let mut dz_per_t: Vec<Tensor> = Vec::with_capacity(t_len);

        for t in (0..t_len).rev() {
            let [gi, gf, gg, go] = &cache.gates[t];
            let th = &cache.tanh_c[t];
            let c_prev = &cache.c[t];

            let mut dz = Tensor::zeros(&[b, 4 * h_dim]);
            for r in 0..b {
                for j in 0..h_dim {
                    let idx = r * h_dim + j;
                    let dh = grad_out.data()[(r * t_len + t) * h_dim + j] + dh_next.data()[idx];
                    let o = go.data()[idx];
                    let tv = th.data()[idx];
                    let dc = dc_next.data()[idx] + dh * o * (1.0 - tv * tv);
                    let i_g = gi.data()[idx];
                    let f_g = gf.data()[idx];
                    let g_g = gg.data()[idx];
                    let di = dc * g_g;
                    let df = dc * c_prev.data()[idx];
                    let dg = dc * i_g;
                    let do_ = dh * tv;
                    let zrow = r * 4 * h_dim;
                    dz.data_mut()[zrow + j] = di * i_g * (1.0 - i_g);
                    dz.data_mut()[zrow + h_dim + j] = df * f_g * (1.0 - f_g);
                    dz.data_mut()[zrow + 2 * h_dim + j] = dg * (1.0 - g_g * g_g);
                    dz.data_mut()[zrow + 3 * h_dim + j] = do_ * o * (1.0 - o);
                    dc_next.data_mut()[idx] = dc * f_g;
                }
            }
            // dx_t = dz W_ihᵀ ; dh_{t-1} = dz W_hhᵀ (matmul_nt transposes RHS).
            let dx_t = matmul_nt(&dz, &self.w_ih);
            dh_next = matmul_nt(&dz, &self.w_hh);
            for r in 0..b {
                let dst = (r * t_len + t) * i_dim;
                let src = r * i_dim;
                grad_x.data_mut()[dst..dst + i_dim].copy_from_slice(&dx_t.data()[src..src + i_dim]);
            }
            dz_per_t.push(dz);
        }
        dz_per_t.reverse(); // index by t ascending
        (grad_x, dz_per_t)
    }

    /// Writes example `r`'s `[G(W_ih), G(W_hh), G(b)]` over a per-example
    /// row: the `(I, L, 4H)` and `(H, L, 4H)` GEMMs of Figure 6's
    /// time-series row, as `L` outer-product accumulations.
    pub(crate) fn write_example(
        &self,
        cache: &LstmCache,
        dz_per_t: &[Tensor],
        r: usize,
        row: &mut [f32],
    ) {
        let h4 = 4 * self.hidden;
        row.fill(0.0);
        let (gw_ih, rest) = row.split_at_mut(self.input * h4);
        let (gw_hh, gb) = rest.split_at_mut(self.hidden * h4);
        for (t, dz) in dz_per_t.iter().enumerate() {
            let dz_r = dz.row(r);
            outer_product_accumulate(gw_ih, time_slice_row(&cache.x, t, r), dz_r);
            outer_product_accumulate(gw_hh, cache.h[t].row(r), dz_r);
            for (acc, &v) in gb.iter_mut().zip(dz_r) {
                *acc += v;
            }
        }
    }

    /// Immutable parameter views: `[w_ih, w_hh, bias]`.
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.w_ih, &self.w_hh, &self.bias]
    }

    /// Mutable parameter views.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w_ih, &mut self.w_hh, &mut self.bias]
    }
}

/// Extracts timestep `t` from `(B, T, F)` as a `(B, F)` tensor.
fn time_slice(x: &Tensor, t: usize) -> Tensor {
    let dims = x.shape().dims();
    let (b, t_len, f) = (dims[0], dims[1], dims[2]);
    let mut out = Tensor::zeros(&[b, f]);
    for r in 0..b {
        let src = (r * t_len + t) * f;
        out.data_mut()[r * f..(r + 1) * f].copy_from_slice(&x.data()[src..src + f]);
    }
    out
}

/// The `(t, r)` entry of `(B, T, F)` as a flat `F`-vector.
fn time_slice_row(x: &Tensor, t: usize, r: usize) -> &[f32] {
    let dims = x.shape().dims();
    let (t_len, f) = (dims[1], dims[2]);
    let src = (r * t_len + t) * f;
    &x.data()[src..src + f]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_determinism() {
        let mut rng = DivaRng::seed_from_u64(8);
        let lstm = Lstm::new(3, 5, &mut rng);
        let x = Tensor::uniform(&[2, 4, 3], -1.0, 1.0, &mut rng);
        let (y1, _) = lstm.forward(&x);
        let (y2, _) = lstm.forward(&x);
        assert_eq!(y1.shape().dims(), &[2, 4, 5]);
        assert_eq!(y1, y2);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = DivaRng::seed_from_u64(9);
        let lstm = Lstm::new(3, 4, &mut rng);
        let mut x = Tensor::uniform(&[2, 3, 3], -1.0, 1.0, &mut rng);
        let (y0, cache) = lstm.forward(&x);
        let g = Tensor::full(y0.shape().dims(), 1.0);
        let gx = lstm
            .backward(&cache, &g, GradMode::PerBatch)
            .grad_input
            .unwrap();
        let eps = 1e-3;
        for idx in [0usize, 7, 11, 17] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let up = lstm.forward(&x).0.sum();
            x.data_mut()[idx] = orig - eps;
            let dn = lstm.forward(&x).0.sum();
            x.data_mut()[idx] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            let an = f64::from(gx.data()[idx]);
            assert!(
                (fd - an).abs() < 2e-2,
                "input grad mismatch at {idx}: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = DivaRng::seed_from_u64(10);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let x = Tensor::uniform(&[2, 3, 2], -1.0, 1.0, &mut rng);
        let (y0, cache) = lstm.forward(&x);
        let g = Tensor::full(y0.shape().dims(), 1.0);
        let grads = lstm
            .backward(&cache, &g, GradMode::PerBatch)
            .grads
            .expect_per_batch();
        let eps = 1e-3;
        // Check a few entries of each parameter.
        for (pi, idxs) in [
            (0usize, vec![0usize, 9, 17]),
            (1, vec![0, 11, 23]),
            (2, vec![0, 5, 11]),
        ] {
            for idx in idxs {
                let orig = match pi {
                    0 => lstm.w_ih.data()[idx],
                    1 => lstm.w_hh.data()[idx],
                    _ => lstm.bias.data()[idx],
                };
                let set = |l: &mut Lstm, v: f32| match pi {
                    0 => l.w_ih.data_mut()[idx] = v,
                    1 => l.w_hh.data_mut()[idx] = v,
                    _ => l.bias.data_mut()[idx] = v,
                };
                set(&mut lstm, orig + eps);
                let up = lstm.forward(&x).0.sum();
                set(&mut lstm, orig - eps);
                let dn = lstm.forward(&x).0.sum();
                set(&mut lstm, orig);
                let fd = (up - dn) / (2.0 * f64::from(eps));
                let an = f64::from(grads[pi].data()[idx]);
                assert!(
                    (fd - an).abs() < 2e-2,
                    "param {pi} grad mismatch at {idx}: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn per_example_grads_sum_to_per_batch() {
        let mut rng = DivaRng::seed_from_u64(11);
        let lstm = Lstm::new(3, 4, &mut rng);
        let x = Tensor::uniform(&[3, 4, 3], -1.0, 1.0, &mut rng);
        let (y, cache) = lstm.forward(&x);
        let g = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);
        let batch = lstm
            .backward(&cache, &g, GradMode::PerBatch)
            .grads
            .expect_per_batch();
        let per_ex = match lstm.backward(&cache, &g, GradMode::PerExample).grads {
            ParamGrads::PerExample(p) => p.examples(),
            other => panic!("unexpected {other:?}"),
        };
        for (pi, batch_grad) in batch.iter().enumerate() {
            let mut sum = Tensor::zeros(batch_grad.shape().dims());
            for ex in &per_ex {
                sum.add_assign(&ex[pi]);
            }
            assert!(
                sum.max_abs_diff(batch_grad) < 1e-3,
                "per-example sum mismatch for param {pi}"
            );
        }
    }
}

//! Group normalization — the normalizer used in DP training practice.
//!
//! Batch normalization mixes statistics *across* examples, which breaks
//! DP-SGD's per-example gradient structure (one example's gradient would
//! depend on the others). Real DP pipelines (including the CIFAR-10 DP-SGD
//! results the paper's Section V builds on) therefore replace BN with
//! GroupNorm, which normalizes within each example only. Supporting it here
//! keeps the functional stack faithful to how the paper's workloads are
//! actually trained.

// Indexed loops below mirror hardware/tensor coordinates; iterator
// rewrites would obscure the (row, column, timestep) structure.
#![allow(clippy::needless_range_loop)]

use diva_tensor::Tensor;

use crate::layer::{BackwardOutput, GradMode, ParamGrads};
use crate::per_example::PerExampleGrads;

/// Group normalization over NCHW tensors: channels are split into `groups`,
/// each normalized to zero mean / unit variance per example, then scaled by
/// a learned per-channel `gamma` and shifted by `beta`.
#[derive(Clone, Debug)]
pub struct GroupNorm {
    gamma: Tensor, // (C,)
    beta: Tensor,  // (C,)
    groups: usize,
    channels: usize,
    eps: f32,
}

/// Forward cache for [`GroupNorm`]: normalized activations and per-group
/// inverse standard deviations.
#[derive(Clone, Debug)]
pub struct GroupNormCache {
    x_hat: Tensor,
    /// `1/σ` per (example, group).
    inv_std: Vec<f32>,
    dims: Vec<usize>,
}

impl GroupNorm {
    /// Creates a group-norm layer (`gamma = 1`, `beta = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide `channels` or either is zero.
    pub fn new(channels: usize, groups: usize) -> Self {
        assert!(groups > 0 && channels > 0, "empty group norm");
        assert!(
            channels.is_multiple_of(groups),
            "groups {groups} must divide channels {channels}"
        );
        Self {
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            groups,
            channels,
            eps: 1e-5,
        }
    }

    /// Number of channel groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Normalizes `(B, C, H, W)` within each (example, group).
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4 with `C == channels`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, GroupNormCache) {
        let dims = x.shape().dims().to_vec();
        assert_eq!(dims.len(), 4, "GroupNorm expects NCHW, got {}", x.shape());
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.channels, "channel mismatch");
        let cg = c / self.groups; // channels per group
        let group_len = cg * h * w;

        let mut x_hat = Tensor::zeros(&dims);
        let mut out = Tensor::zeros(&dims);
        let mut inv_std = Vec::with_capacity(n * self.groups);
        let xv = x.data();
        for ni in 0..n {
            for g in 0..self.groups {
                let start = (ni * c + g * cg) * h * w;
                let slice = &xv[start..start + group_len];
                let mean = slice.iter().map(|&v| f64::from(v)).sum::<f64>() / group_len as f64;
                let var = slice
                    .iter()
                    .map(|&v| (f64::from(v) - mean).powi(2))
                    .sum::<f64>()
                    / group_len as f64;
                let istd = 1.0 / ((var as f32) + self.eps).sqrt();
                inv_std.push(istd);
                for idx in 0..group_len {
                    let ch = g * cg + idx / (h * w);
                    let xh = (slice[idx] - mean as f32) * istd;
                    x_hat.data_mut()[start + idx] = xh;
                    out.data_mut()[start + idx] = self.gamma.data()[ch] * xh + self.beta.data()[ch];
                }
            }
        }
        (
            out,
            GroupNormCache {
                x_hat,
                inv_std,
                dims,
            },
        )
    }

    /// Backward pass; see [`GradMode`].
    pub fn backward(
        &self,
        cache: &GroupNormCache,
        grad_out: &Tensor,
        mode: GradMode,
    ) -> BackwardOutput {
        let (grad_input, dgammas, dbetas) = self.backward_data(cache, grad_out);
        let (n, c) = (cache.dims[0], cache.dims[1]);
        let grads = match mode {
            GradMode::PerBatch => {
                let mut dgamma = Tensor::zeros(&[c]);
                let mut dbeta = Tensor::zeros(&[c]);
                for ni in 0..n {
                    dgamma.add_assign(&dgammas[ni]);
                    dbeta.add_assign(&dbetas[ni]);
                }
                ParamGrads::PerBatch(vec![dgamma, dbeta])
            }
            GradMode::PerExample => {
                ParamGrads::PerExample(PerExampleGrads::build(n, &self.params(), |ni, row| {
                    self.write_example(&dgammas, &dbetas, ni, row)
                }))
            }
            GradMode::NormOnly => ParamGrads::SqNorms(
                dgammas
                    .iter()
                    .zip(&dbetas)
                    .map(|(g, b)| g.squared_norm() + b.squared_norm())
                    .collect(),
            ),
        };
        BackwardOutput {
            grad_input: Some(grad_input),
            grads,
        }
    }

    /// The input gradient and each example's `(dγ, dβ)`: what the row
    /// writer reads.
    pub(crate) fn backward_data(
        &self,
        cache: &GroupNormCache,
        grad_out: &Tensor,
    ) -> (Tensor, Vec<Tensor>, Vec<Tensor>) {
        let (n, c, h, w) = (cache.dims[0], cache.dims[1], cache.dims[2], cache.dims[3]);
        let cg = c / self.groups;
        let group_len = cg * h * w;
        let gv = grad_out.data();
        let xh = cache.x_hat.data();

        let mut grad_input = Tensor::zeros(&cache.dims);
        // Per-example (dgamma, dbeta) pairs, reduced later per mode.
        let mut dgammas = vec![Tensor::zeros(&[c]); n];
        let mut dbetas = vec![Tensor::zeros(&[c]); n];

        for ni in 0..n {
            for g in 0..self.groups {
                let start = (ni * c + g * cg) * h * w;
                let istd = cache.inv_std[ni * self.groups + g];
                // First pass: accumulate the two group means the dx formula
                // needs, plus the parameter gradients.
                let mut mean_dxhat = 0.0f64;
                let mut mean_dxhat_xhat = 0.0f64;
                for idx in 0..group_len {
                    let ch = g * cg + idx / (h * w);
                    let dy = gv[start + idx];
                    let xhi = xh[start + idx];
                    dbetas[ni].data_mut()[ch] += dy;
                    dgammas[ni].data_mut()[ch] += dy * xhi;
                    let dxhat = dy * self.gamma.data()[ch];
                    mean_dxhat += f64::from(dxhat);
                    mean_dxhat_xhat += f64::from(dxhat * xhi);
                }
                mean_dxhat /= group_len as f64;
                mean_dxhat_xhat /= group_len as f64;
                // Second pass: dx = istd * (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)).
                for idx in 0..group_len {
                    let ch = g * cg + idx / (h * w);
                    let dxhat = gv[start + idx] * self.gamma.data()[ch];
                    let xhi = xh[start + idx];
                    grad_input.data_mut()[start + idx] =
                        istd * (dxhat - mean_dxhat as f32 - xhi * mean_dxhat_xhat as f32);
                }
            }
        }

        (grad_input, dgammas, dbetas)
    }

    /// Writes example `ni`'s `[dγ, dβ]` over a per-example row.
    pub(crate) fn write_example(
        &self,
        dgammas: &[Tensor],
        dbetas: &[Tensor],
        ni: usize,
        row: &mut [f32],
    ) {
        let (dgamma, dbeta) = row.split_at_mut(self.channels);
        dgamma.copy_from_slice(dgammas[ni].data());
        dbeta.copy_from_slice(dbetas[ni].data());
    }

    /// Immutable parameter views: `[gamma, beta]`.
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    /// Mutable parameter views.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_tensor::DivaRng;

    #[test]
    fn output_is_normalized_per_group() {
        let mut rng = DivaRng::seed_from_u64(20);
        let gn = GroupNorm::new(4, 2);
        let x = Tensor::uniform(&[2, 4, 3, 3], -5.0, 5.0, &mut rng);
        let (y, _) = gn.forward(&x);
        // Each (example, group) slab of y has ~zero mean and ~unit variance.
        let group_len = 2 * 9;
        for ni in 0..2 {
            for g in 0..2 {
                let start = (ni * 4 + g * 2) * 9;
                let slab = &y.data()[start..start + group_len];
                let mean: f64 = slab.iter().map(|&v| f64::from(v)).sum::<f64>() / group_len as f64;
                let var: f64 = slab
                    .iter()
                    .map(|&v| (f64::from(v) - mean).powi(2))
                    .sum::<f64>()
                    / group_len as f64;
                assert!(mean.abs() < 1e-5, "mean {mean}");
                assert!((var - 1.0).abs() < 1e-3, "var {var}");
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = DivaRng::seed_from_u64(21);
        let mut gn = GroupNorm::new(2, 1);
        // Non-trivial gamma to exercise the scale path.
        gn.gamma.data_mut()[0] = 1.5;
        gn.gamma.data_mut()[1] = 0.7;
        let mut x = Tensor::uniform(&[1, 2, 2, 2], -1.0, 1.0, &mut rng);
        // Loss = Σ y·w with fixed random weights (sum alone has zero grad
        // through a normalizer).
        let wts = Tensor::uniform(&[1, 2, 2, 2], -1.0, 1.0, &mut rng);
        let loss = |gn: &GroupNorm, x: &Tensor| -> f64 {
            let (y, _) = gn.forward(x);
            y.data()
                .iter()
                .zip(wts.data())
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum()
        };
        let (_, cache) = gn.forward(&x);
        let gx = gn
            .backward(&cache, &wts, GradMode::PerBatch)
            .grad_input
            .unwrap();
        let eps = 1e-3;
        for idx in 0..8 {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let up = loss(&gn, &x);
            x.data_mut()[idx] = orig - eps;
            let dn = loss(&gn, &x);
            x.data_mut()[idx] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            let an = f64::from(gx.data()[idx]);
            assert!(
                (fd - an).abs() < 1e-2,
                "dx mismatch at {idx}: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn parameter_gradients_match_finite_difference() {
        let mut rng = DivaRng::seed_from_u64(22);
        let mut gn = GroupNorm::new(2, 2);
        let x = Tensor::uniform(&[2, 2, 2, 2], -1.0, 1.0, &mut rng);
        let wts = Tensor::uniform(&[2, 2, 2, 2], -1.0, 1.0, &mut rng);
        let loss = |gn: &GroupNorm, x: &Tensor| -> f64 {
            let (y, _) = gn.forward(x);
            y.data()
                .iter()
                .zip(wts.data())
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum()
        };
        let (_, cache) = gn.forward(&x);
        let grads = gn
            .backward(&cache, &wts, GradMode::PerBatch)
            .grads
            .expect_per_batch();
        let eps = 1e-3;
        for ch in 0..2 {
            // gamma
            let orig = gn.gamma.data()[ch];
            gn.gamma.data_mut()[ch] = orig + eps;
            let up = loss(&gn, &x);
            gn.gamma.data_mut()[ch] = orig - eps;
            let dn = loss(&gn, &x);
            gn.gamma.data_mut()[ch] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            assert!((fd - f64::from(grads[0].data()[ch])).abs() < 1e-2);
            // beta
            let orig = gn.beta.data()[ch];
            gn.beta.data_mut()[ch] = orig + eps;
            let up = loss(&gn, &x);
            gn.beta.data_mut()[ch] = orig - eps;
            let dn = loss(&gn, &x);
            gn.beta.data_mut()[ch] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            assert!((fd - f64::from(grads[1].data()[ch])).abs() < 1e-2);
        }
    }

    #[test]
    fn per_example_grads_sum_to_per_batch() {
        let mut rng = DivaRng::seed_from_u64(23);
        let gn = GroupNorm::new(4, 2);
        let x = Tensor::uniform(&[3, 4, 2, 2], -1.0, 1.0, &mut rng);
        let (y, cache) = gn.forward(&x);
        let g = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);
        let batch = gn
            .backward(&cache, &g, GradMode::PerBatch)
            .grads
            .expect_per_batch();
        let per_ex = match gn.backward(&cache, &g, GradMode::PerExample).grads {
            ParamGrads::PerExample(p) => p.examples(),
            other => panic!("unexpected {other:?}"),
        };
        for pi in 0..2 {
            let mut sum = Tensor::zeros(batch[pi].shape().dims());
            for ex in &per_ex {
                sum.add_assign(&ex[pi]);
            }
            assert!(sum.max_abs_diff(&batch[pi]) < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_group_count_panics() {
        let _ = GroupNorm::new(6, 4);
    }
}

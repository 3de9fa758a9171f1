//! Embedding lookup with per-example gradient support.
//!
//! Embedding tables matter to the DiVa story for an unexpected reason:
//! DP-SGD frameworks materialize *dense* per-example embedding gradients
//! (a `(vocab, dim)` tensor per example), which is why the paper's LSTM
//! workloads blow up in memory (Figure 4). The functional version here
//! mirrors that behaviour so the algorithmic and performance models agree.

use diva_tensor::{DivaRng, Tensor};

use crate::layer::{BackwardOutput, GradMode, ParamGrads};
use crate::per_example::{self, PerExampleGrads};

/// An embedding table mapping integer token ids to dense vectors.
///
/// Input: `(B, T)` tensor whose entries are token ids stored as `f32`
/// (validated to be integral and in range). Output: `(B, T, dim)`.
#[derive(Clone, Debug)]
pub struct Embedding {
    table: Tensor, // (vocab, dim)
    vocab: usize,
    dim: usize,
}

/// Forward cache for [`Embedding`]: the looked-up ids.
#[derive(Clone, Debug)]
pub struct EmbeddingCache {
    ids: Vec<usize>,
    batch: usize,
    seq: usize,
}

impl Embedding {
    /// Creates a table with `N(0, 1)`-scaled-by-`1/√dim` initialization.
    pub fn new(vocab: usize, dim: usize, rng: &mut DivaRng) -> Self {
        let std = 1.0 / (dim as f32).sqrt();
        Self {
            table: Tensor::gaussian(&[vocab, dim], std, rng),
            vocab,
            dim,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up a `(B, T)` id tensor, producing `(B, T, dim)`.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 2 or contains non-integral or
    /// out-of-range ids.
    pub fn forward(&self, x: &Tensor) -> (Tensor, EmbeddingCache) {
        let (b, t) = x.dims2();
        let mut ids = Vec::with_capacity(b * t);
        for &v in x.data() {
            let id = v as usize;
            assert!(
                v >= 0.0 && v.fract() == 0.0 && id < self.vocab,
                "invalid token id {v} for vocab {}",
                self.vocab
            );
            ids.push(id);
        }
        let mut out = Tensor::zeros(&[b, t, self.dim]);
        for (pos, &id) in ids.iter().enumerate() {
            let src = id * self.dim;
            let dst = pos * self.dim;
            out.data_mut()[dst..dst + self.dim]
                .copy_from_slice(&self.table.data()[src..src + self.dim]);
        }
        (
            out,
            EmbeddingCache {
                ids,
                batch: b,
                seq: t,
            },
        )
    }

    /// Backward pass: scatter-adds the upstream gradient into table rows.
    ///
    /// The gradient with respect to the (discrete) input is zero, so
    /// `grad_input` is `Some(zeros(B, T))` — a constant. Embedding usually
    /// sits first in a network, where `Network::backward` requests no input
    /// gradient at all (`need_input_grad = false`); like the other cheap
    /// layers this one ignores the flag and returns the zero tensor
    /// regardless, which callers are expected to drop (see
    /// `BackwardOutput::grad_input` for the contract).
    pub fn backward(
        &self,
        cache: &EmbeddingCache,
        grad_out: &Tensor,
        mode: GradMode,
    ) -> BackwardOutput {
        let b = cache.batch;
        let grad_input = Some(self.grad_input(cache, grad_out));
        let write_example = |ex: usize, g: &mut [f32]| self.write_example(cache, grad_out, ex, g);
        let grads = match mode {
            GradMode::PerBatch => {
                let mut g = Tensor::zeros(&[self.vocab, self.dim]);
                let mut example = Tensor::zeros(&[self.vocab, self.dim]);
                for ex in 0..b {
                    write_example(ex, example.data_mut());
                    g.add_assign(&example);
                }
                ParamGrads::PerBatch(vec![g])
            }
            GradMode::PerExample => {
                ParamGrads::PerExample(PerExampleGrads::build(b, &self.params(), write_example))
            }
            GradMode::NormOnly => {
                ParamGrads::SqNorms(per_example::sq_norms(b, &self.params(), write_example))
            }
        };
        BackwardOutput { grad_input, grads }
    }

    /// The (constant, zero) `(B, T)` input gradient; see [`Self::backward`].
    pub(crate) fn grad_input(&self, cache: &EmbeddingCache, grad_out: &Tensor) -> Tensor {
        let (b, t) = (cache.batch, cache.seq);
        assert_eq!(
            grad_out.shape().dims(),
            &[b, t, self.dim],
            "embedding gradient shape mismatch"
        );
        Tensor::zeros(&[b, t])
    }

    /// Writes example `ex`'s dense `(vocab, dim)` gradient over a
    /// per-example row.
    pub(crate) fn write_example(
        &self,
        cache: &EmbeddingCache,
        grad_out: &Tensor,
        ex: usize,
        g: &mut [f32],
    ) {
        let t = cache.seq;
        g.fill(0.0);
        for ti in 0..t {
            let id = cache.ids[ex * t + ti];
            let src = (ex * t + ti) * self.dim;
            let dst = id * self.dim;
            for d in 0..self.dim {
                g[dst + d] += grad_out.data()[src + d];
            }
        }
    }

    /// Immutable parameter views: `[table]`.
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.table]
    }

    /// Mutable parameter views.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.table]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(data: &[f32], b: usize, t: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[b, t])
    }

    #[test]
    fn lookup_copies_table_rows() {
        let mut rng = DivaRng::seed_from_u64(30);
        let emb = Embedding::new(5, 3, &mut rng);
        let x = ids(&[0.0, 4.0, 2.0, 2.0], 2, 2);
        let (y, _) = emb.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 2, 3]);
        assert_eq!(&y.data()[0..3], &emb.table.data()[0..3]);
        assert_eq!(&y.data()[3..6], &emb.table.data()[12..15]);
    }

    #[test]
    fn repeated_tokens_accumulate_gradient() {
        let mut rng = DivaRng::seed_from_u64(31);
        let emb = Embedding::new(4, 2, &mut rng);
        let x = ids(&[1.0, 1.0], 1, 2); // token 1 twice
        let (y, cache) = emb.forward(&x);
        let g = Tensor::full(y.shape().dims(), 1.0);
        let grads = emb
            .backward(&cache, &g, GradMode::PerBatch)
            .grads
            .expect_per_batch();
        // Row 1 receives gradient 2.0 per dim; all other rows zero.
        assert_eq!(grads[0].data()[2], 2.0);
        assert_eq!(grads[0].data()[3], 2.0);
        assert_eq!(grads[0].data()[0], 0.0);
        assert_eq!(grads[0].data()[6], 0.0);
    }

    #[test]
    fn per_example_grads_sum_to_batch() {
        let mut rng = DivaRng::seed_from_u64(32);
        let emb = Embedding::new(6, 3, &mut rng);
        let x = ids(&[0.0, 5.0, 2.0, 0.0, 1.0, 1.0], 3, 2);
        let (y, cache) = emb.forward(&x);
        let g = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);
        let batch = emb
            .backward(&cache, &g, GradMode::PerBatch)
            .grads
            .expect_per_batch();
        let per_ex = match emb.backward(&cache, &g, GradMode::PerExample).grads {
            ParamGrads::PerExample(p) => p.examples(),
            other => panic!("unexpected {other:?}"),
        };
        let mut sum = Tensor::zeros(&[6, 3]);
        for ex in &per_ex {
            sum.add_assign(&ex[0]);
        }
        assert!(sum.max_abs_diff(&batch[0]) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "invalid token id")]
    fn out_of_range_token_panics() {
        let mut rng = DivaRng::seed_from_u64(33);
        let emb = Embedding::new(4, 2, &mut rng);
        let x = ids(&[4.0], 1, 1);
        let _ = emb.forward(&x);
    }

    #[test]
    fn norm_only_matches_per_example() {
        let mut rng = DivaRng::seed_from_u64(34);
        let emb = Embedding::new(5, 4, &mut rng);
        let x = ids(&[0.0, 3.0, 3.0, 1.0], 2, 2);
        let (y, cache) = emb.forward(&x);
        let g = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);
        let norms = match emb.backward(&cache, &g, GradMode::NormOnly).grads {
            ParamGrads::SqNorms(n) => n,
            other => panic!("unexpected {other:?}"),
        };
        let per_ex = match emb.backward(&cache, &g, GradMode::PerExample).grads {
            ParamGrads::PerExample(p) => p.examples(),
            other => panic!("unexpected {other:?}"),
        };
        for (i, ex) in per_ex.iter().enumerate() {
            assert!((ex[0].squared_norm() - norms[i]).abs() < 1e-9);
        }
    }
}

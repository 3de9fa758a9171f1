//! Average and max pooling over square, non-overlapping windows.
//!
//! Every kernel runs on the shared pool, one task per example: a forward
//! task writes its example's outputs, a backward task zeroes its example's
//! input gradient and then adds each output gradient in output order. Each
//! input element belongs to exactly one window, so it takes at most one
//! contribution, added to +0.0 as in a serial loop — the results are
//! bitwise the same at every thread count, and no example's gradient can
//! reach another example's input.

use diva_tensor::{parallel, Tensor};

use crate::layer::{BackwardOutput, ParamGrads};

/// Average pooling with a `k × k` window and stride `k`.
#[derive(Clone, Copy, Debug)]
pub struct AvgPool2d {
    k: usize,
}

/// Max pooling with a `k × k` window and stride `k`.
#[derive(Clone, Copy, Debug)]
pub struct MaxPool2d {
    k: usize,
}

/// Forward cache for pooling layers: input shape plus, for max pooling, the
/// winning element of every window.
#[derive(Clone, Debug)]
pub struct PoolCache {
    in_dims: Vec<usize>,
    /// `Some` for max pooling: per output element, the window-local index
    /// `di·k + dj` of the input it took. A window where nothing beats −∞
    /// (all NaN or all −∞) points at its own first element.
    argmax: Option<Vec<u8>>,
}

/// The dimensions a pooling kernel works over.
#[derive(Clone, Copy)]
struct Dims {
    c: usize,
    h: usize,
    w: usize,
    p: usize,
    q: usize,
}

impl Dims {
    fn of(in_dims: &[usize], k: usize) -> Self {
        assert_eq!(in_dims.len(), 4, "pooling expects NCHW, got {in_dims:?}");
        let (c, h, w) = (in_dims[1], in_dims[2], in_dims[3]);
        assert!(
            h.is_multiple_of(k) && w.is_multiple_of(k),
            "pooling window {k} does not divide input {h}x{w}"
        );
        Self {
            c,
            h,
            w,
            p: h / k,
            q: w / k,
        }
    }

    /// Input elements per example.
    fn image(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Output elements per example.
    fn pooled(&self) -> usize {
        self.c * self.p * self.q
    }

    /// Calls `f(o, origin)` for every output element `o` of one example,
    /// in order, with `origin` the example-local input index of its
    /// window's first element; window element `(di, dj)` is at
    /// `origin + di·W + dj`.
    fn windows(&self, k: usize, mut f: impl FnMut(usize, usize)) {
        let (h, w, p, q) = (self.h, self.w, self.p, self.q);
        for ci in 0..self.c {
            for pi in 0..p {
                for qi in 0..q {
                    f((ci * p + pi) * q + qi, (ci * h + pi * k) * w + qi * k);
                }
            }
        }
    }
}

impl AvgPool2d {
    /// Creates an average pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pooling window must be positive");
        Self { k }
    }

    /// The pooling window side.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pools `(B, C, H, W)` down to `(B, C, H/k, W/k)`.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4 or not divisible by `k`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, PoolCache) {
        let k = self.k;
        let d = Dims::of(x.shape().dims(), k);
        let n = x.shape().dim(0);
        let mut y = Tensor::for_overwrite(&[n, d.c, d.p, d.q]);
        let xv = x.data();
        let inv = 1.0 / (k * k) as f32;
        parallel::par_chunks_mut(y.data_mut(), d.pooled().max(1), |ni, out| {
            let image = &xv[ni * d.image()..(ni + 1) * d.image()];
            d.windows(k, |o, origin| {
                let mut acc = 0.0;
                for di in 0..k {
                    for dj in 0..k {
                        acc += image[origin + di * d.w + dj];
                    }
                }
                out[o] = acc * inv;
            });
        });
        (
            y,
            PoolCache {
                in_dims: x.shape().dims().to_vec(),
                argmax: None,
            },
        )
    }

    /// Distributes each output gradient uniformly over its window.
    pub fn backward(&self, cache: &PoolCache, grad_out: &Tensor) -> BackwardOutput {
        let k = self.k;
        let d = Dims::of(&cache.in_dims, k);
        let mut gx = Tensor::for_overwrite(&cache.in_dims);
        let gv = grad_out.data();
        let inv = 1.0 / (k * k) as f32;
        parallel::par_chunks_mut(gx.data_mut(), d.image().max(1), |ni, image| {
            image.fill(0.0);
            let g = &gv[ni * d.pooled()..(ni + 1) * d.pooled()];
            d.windows(k, |o, origin| {
                let go = g[o] * inv;
                for di in 0..k {
                    for dj in 0..k {
                        image[origin + di * d.w + dj] += go;
                    }
                }
            });
        });
        BackwardOutput {
            grad_input: Some(gx),
            grads: ParamGrads::None,
        }
    }
}

impl MaxPool2d {
    /// Creates a max pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 16` (the cached argmax is a one-byte
    /// window index).
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pooling window must be positive");
        assert!(
            k * k <= 256,
            "max-pool window {k} is over 16: its argmax is a one-byte window index"
        );
        Self { k }
    }

    /// The pooling window side.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pools `(B, C, H, W)` down to `(B, C, H/k, W/k)` taking window maxima.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4 or not divisible by `k`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, PoolCache) {
        let k = self.k;
        let d = Dims::of(x.shape().dims(), k);
        let n = x.shape().dim(0);
        let mut y = Tensor::for_overwrite(&[n, d.c, d.p, d.q]);
        let mut argmax = vec![0u8; y.len()];
        let xv = x.data();
        // One task per example, writing its maxima and their indices.
        let chunk = d.pooled().max(1);
        let mut examples: Vec<(&mut [f32], &mut [u8])> = y
            .data_mut()
            .chunks_mut(chunk)
            .zip(argmax.chunks_mut(chunk))
            .collect();
        parallel::par_chunks_mut(&mut examples, 1, |ni, example| {
            let (out, arg) = &mut example[0];
            let image = &xv[ni * d.image()..(ni + 1) * d.image()];
            d.windows(k, |o, origin| {
                let mut best = f32::NEG_INFINITY;
                let mut best_at = 0;
                for di in 0..k {
                    for dj in 0..k {
                        let v = image[origin + di * d.w + dj];
                        if v > best {
                            best = v;
                            best_at = di * k + dj;
                        }
                    }
                }
                out[o] = best;
                arg[o] = best_at as u8;
            });
        });
        (
            y,
            PoolCache {
                in_dims: x.shape().dims().to_vec(),
                argmax: Some(argmax),
            },
        )
    }

    /// Routes each output gradient to the argmax input position.
    ///
    /// # Panics
    ///
    /// Panics if the cache was produced by average pooling.
    pub fn backward(&self, cache: &PoolCache, grad_out: &Tensor) -> BackwardOutput {
        let argmax = cache
            .argmax
            .as_ref()
            .expect("max-pool backward requires a max-pool cache");
        assert_eq!(
            grad_out.len(),
            argmax.len(),
            "max-pool gradient does not match the cached forward"
        );
        let k = self.k;
        let d = Dims::of(&cache.in_dims, k);
        // Image offset of each window index, relative to the window origin.
        let offsets: Vec<usize> = (0..k * k).map(|a| a / k * d.w + a % k).collect();
        let mut gx = Tensor::for_overwrite(&cache.in_dims);
        let gv = grad_out.data();
        parallel::par_chunks_mut(gx.data_mut(), d.image().max(1), |ni, image| {
            image.fill(0.0);
            let span = ni * d.pooled()..(ni + 1) * d.pooled();
            let (g, arg) = (&gv[span.clone()], &argmax[span]);
            d.windows(k, |o, origin| {
                image[origin + offsets[usize::from(arg[o])]] += g[o];
            });
        });
        BackwardOutput {
            grad_input: Some(gx),
            grads: ParamGrads::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_pool_computes_window_means() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let (y, _) = AvgPool2d::new(2).forward(&x);
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn max_pool_computes_window_maxima() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let (y, _) = MaxPool2d::new(2).forward(&x);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avg_pool_backward_conserves_gradient_mass() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let pool = AvgPool2d::new(2);
        let (y, cache) = pool.forward(&x);
        let g = Tensor::full(y.shape().dims(), 1.0);
        let gx = pool.backward(&cache, &g).grad_input.unwrap();
        assert!((gx.sum() - g.sum()).abs() < 1e-6);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 2.0, 3.0], &[1, 1, 2, 2]);
        let pool = MaxPool2d::new(2);
        let (_, cache) = pool.forward(&x);
        let g = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]);
        let gx = pool.backward(&cache, &g).grad_input.unwrap();
        assert_eq!(gx.data(), &[0.0, 4.0, 0.0, 0.0]);
    }

    /// A window where nothing beats −∞ must route its gradient to its own
    /// first element, inside its own example: batch 2, example 1's only
    /// window is all −∞.
    #[test]
    fn max_pool_without_a_winner_keeps_the_gradient_in_its_example() {
        let inf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, inf, inf, inf, inf], &[2, 1, 2, 2]);
        let pool = MaxPool2d::new(2);
        let (y, cache) = pool.forward(&x);
        assert_eq!(y.data(), &[4.0, inf]);
        let g = Tensor::from_vec(vec![10.0, 5.0], &[2, 1, 1, 1]);
        let gx = pool.backward(&cache, &g).grad_input.unwrap();
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 10.0, 5.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn indivisible_input_panics() {
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let _ = AvgPool2d::new(2).forward(&x);
    }
}

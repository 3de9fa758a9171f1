//! Parameter-free layers: ReLU, Flatten, sigmoid and tanh.
//!
//! ReLU's forward and backward are one pool-parallel pass each. The
//! forward hands its output on without copying it and caches only the
//! backward's one-byte mask `y <= 0` (the same as `x <= 0`), written in
//! the same pass.

use diva_tensor::{relu, relu_backward, Tensor};

use crate::layer::{BackwardOutput, ParamGrads};

/// Rectified linear unit, applied elementwise.
#[derive(Clone, Copy, Debug, Default)]
pub struct Relu;

/// Forward cache for [`Relu`]: the mask `y <= 0` of the activation
/// output, which equals the input's `x <= 0` for every input, −0.0 and NaN
/// included.
#[derive(Clone, Debug)]
pub struct ReluCache {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu
    }

    /// Applies ReLU elementwise.
    pub fn forward(&self, x: &Tensor) -> (Tensor, ReluCache) {
        let (y, mask) = relu(x);
        (y, ReluCache { mask })
    }

    /// Masks the upstream gradient where the activation was non-positive.
    pub fn backward(&self, cache: &ReluCache, grad_out: &Tensor) -> BackwardOutput {
        BackwardOutput {
            grad_input: Some(relu_backward(grad_out, &cache.mask)),
            grads: ParamGrads::None,
        }
    }
}

/// Flattens a batched tensor `(B, d1, d2, ...)` into `(B, d1·d2·...)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flatten;

/// Forward cache for [`Flatten`]: the original input shape.
#[derive(Clone, Debug)]
pub struct FlattenCache {
    dims: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten
    }

    /// Flattens all but the batch dimension.
    ///
    /// # Panics
    ///
    /// Panics if the input is rank 0.
    pub fn forward(&self, x: &Tensor) -> (Tensor, FlattenCache) {
        let dims = x.shape().dims().to_vec();
        assert!(!dims.is_empty(), "cannot flatten a scalar");
        let b = dims[0];
        let rest: usize = dims[1..].iter().product();
        let y = x.clone().reshape(&[b, rest]);
        (y, FlattenCache { dims })
    }

    /// Restores the original shape on the gradient.
    pub fn backward(&self, cache: &FlattenCache, grad_out: &Tensor) -> BackwardOutput {
        BackwardOutput {
            grad_input: Some(grad_out.clone().reshape(&cache.dims)),
            grads: ParamGrads::None,
        }
    }
}

/// Logistic sigmoid, applied elementwise.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sigmoid;

/// Forward cache for [`Sigmoid`]: the activation output (its derivative is
/// `y·(1−y)`).
#[derive(Clone, Debug)]
pub struct SigmoidCache {
    y: Tensor,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid
    }

    /// Applies `1/(1+e^{−x})` elementwise.
    pub fn forward(&self, x: &Tensor) -> (Tensor, SigmoidCache) {
        let mut y = x.clone();
        for v in y.data_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        (y.clone(), SigmoidCache { y })
    }

    /// Backward: `dx = dy · y · (1 − y)`.
    pub fn backward(&self, cache: &SigmoidCache, grad_out: &Tensor) -> BackwardOutput {
        let mut gx = grad_out.clone();
        for (g, &y) in gx.data_mut().iter_mut().zip(cache.y.data()) {
            *g *= y * (1.0 - y);
        }
        BackwardOutput {
            grad_input: Some(gx),
            grads: ParamGrads::None,
        }
    }
}

/// Hyperbolic tangent, applied elementwise.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tanh;

/// Forward cache for [`Tanh`]: the activation output (derivative `1 − y²`).
#[derive(Clone, Debug)]
pub struct TanhCache {
    y: Tensor,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh
    }

    /// Applies `tanh` elementwise.
    pub fn forward(&self, x: &Tensor) -> (Tensor, TanhCache) {
        let mut y = x.clone();
        for v in y.data_mut() {
            *v = v.tanh();
        }
        (y.clone(), TanhCache { y })
    }

    /// Backward: `dx = dy · (1 − y²)`.
    pub fn backward(&self, cache: &TanhCache, grad_out: &Tensor) -> BackwardOutput {
        let mut gx = grad_out.clone();
        for (g, &y) in gx.data_mut().iter_mut().zip(cache.y.data()) {
            *g *= 1.0 - y * y;
        }
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
    fn flatten_round_trips() {
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let f = Flatten::new();
        let (y, cache) = f.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 12]);
        let back = f.backward(&cache, &y).grad_input.unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn relu_backward_uses_forward_input() {
        let r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]);
        let (_, cache) = r.forward(&x);
        let g = Tensor::from_vec(vec![5.0, 5.0], &[1, 2]);
        assert_eq!(
            r.backward(&cache, &g).grad_input.unwrap().data(),
            &[0.0, 5.0]
        );
    }

    #[test]
    fn sigmoid_saturates_and_centers() {
        let s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]);
        let (y, _) = s.forward(&x);
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_difference() {
        let s = Sigmoid::new();
        let mut x = Tensor::from_vec(vec![0.3, -1.2], &[2]);
        let (_, cache) = s.forward(&x);
        let g = Tensor::full(&[2], 1.0);
        let gx = s.backward(&cache, &g).grad_input.unwrap();
        let eps = 1e-3;
        for idx in 0..2 {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let up = s.forward(&x).0.sum();
            x.data_mut()[idx] = orig - eps;
            let dn = s.forward(&x).0.sum();
            x.data_mut()[idx] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            assert!((fd - f64::from(gx.data()[idx])).abs() < 1e-4);
        }
    }

    #[test]
    fn tanh_gradient_matches_finite_difference() {
        let t = Tanh::new();
        let mut x = Tensor::from_vec(vec![0.5, -0.7, 2.0], &[3]);
        let (_, cache) = t.forward(&x);
        let g = Tensor::full(&[3], 1.0);
        let gx = t.backward(&cache, &g).grad_input.unwrap();
        let eps = 1e-3;
        for idx in 0..3 {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let up = t.forward(&x).0.sum();
            x.data_mut()[idx] = orig - eps;
            let dn = t.forward(&x).0.sum();
            x.data_mut()[idx] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            assert!((fd - f64::from(gx.data()[idx])).abs() < 1e-4);
        }
    }
}

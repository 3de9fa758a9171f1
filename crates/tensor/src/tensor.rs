//! The dense row-major `f32` tensor type.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::buffer::Buffer;
use crate::rng::DivaRng;
use crate::shape::Shape;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` owns its storage, a [`Buffer`]. All operations in this crate
/// are eager and take their outputs from the recycled buffer pool (see
/// [`Buffer`]); shape mismatches are programming errors and panic with a
/// descriptive message (documented per function).
///
/// # Example
///
/// ```
/// use diva_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Buffer,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = Buffer::full(shape.len(), value);
        Self { shape, data }
    }

    /// A tensor of unspecified contents (see [`Buffer::for_overwrite`]), for
    /// a producer that writes every element before anything reads one —
    /// a parallel kernel whose tasks each fill their own slice, say.
    pub fn for_overwrite(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = Buffer::for_overwrite(shape.len());
        Self { shape, data }
    }

    /// Creates a square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied
    /// by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Self {
            shape,
            data: data.into(),
        }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut DivaRng) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(|_| rng.uniform(lo, hi)).collect();
        Self { shape, data }
    }

    /// Creates a tensor with elements drawn from `N(0, std²)`.
    pub fn gaussian(dims: &[usize], std: f32, rng: &mut DivaRng) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len())
            .map(|_| rng.gaussian(0.0, f64::from(std)) as f32)
            .collect();
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data, row-major.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its storage, which leaves the buffer
    /// pool for good.
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Reinterprets the tensor with a new shape holding the same number of
    /// elements (a free, row-major reshape).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let new_shape = Shape::new(dims);
        assert_eq!(
            self.shape.len(),
            new_shape.len(),
            "cannot reshape {} ({} elements) into {} ({} elements)",
            self.shape,
            self.shape.len(),
            new_shape,
            new_shape.len()
        );
        self.shape = new_shape;
        self
    }

    /// For a rank-2 tensor, returns `(rows, cols)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn dims2(&self) -> (usize, usize) {
        assert_eq!(self.shape.rank(), 2, "expected rank-2, got {}", self.shape);
        (self.shape.dim(0), self.shape.dim(1))
    }

    /// Returns a new tensor that is the rank-2 transpose of `self`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Self {
        let (r, c) = self.dims2();
        let mut out = Tensor::for_overwrite(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Returns the row `i` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        let (r, c) = self.dims2();
        assert!(i < r, "row {i} out of bounds for {} rows", r);
        &self.data[i * c..(i + 1) * c]
    }

    /// Elementwise in-place addition of another tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Elementwise in-place subtraction of another tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "sub_assign shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// Multiplies every element by `s` in place, split over the shared
    /// pool in fixed-size blocks (one rounding per element, so the result
    /// is the same at every thread count).
    pub fn scale(&mut self, s: f32) {
        crate::parallel::par_chunks_mut(
            &mut self.data,
            crate::ops::ELEMENTWISE_BLOCK,
            |_, block| {
                for a in block {
                    *a *= s;
                }
            },
        );
    }

    /// The sum of all elements (accumulated in `f64` for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| f64::from(x)).sum()
    }

    /// The sum of squares of all elements (accumulated in `f64` by
    /// [`crate::sq_norm`]).
    pub fn squared_norm(&self) -> f64 {
        crate::ops::sq_norm(&self.data)
    }

    /// The L2 norm of the tensor viewed as a flat vector.
    pub fn l2_norm(&self) -> f64 {
        self.squared_norm().sqrt()
    }

    /// The maximum absolute difference against another tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "max_abs_diff shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Index<&[usize]> for Tensor {
    type Output = f32;

    fn index(&self, idx: &[usize]) -> &f32 {
        &self.data[flat_index(&self.shape, idx)]
    }
}

impl IndexMut<&[usize]> for Tensor {
    fn index_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let i = flat_index(&self.shape, idx);
        &mut self.data[i]
    }
}

fn flat_index(shape: &Shape, idx: &[usize]) -> usize {
    assert_eq!(
        idx.len(),
        shape.rank(),
        "index rank {} does not match tensor rank {}",
        idx.len(),
        shape.rank()
    );
    let strides = shape.strides();
    idx.iter()
        .zip(strides.iter())
        .zip(shape.dims().iter())
        .map(|((&i, &s), &d)| {
            assert!(i < d, "index {i} out of bounds for dimension of size {d}");
            i * s
        })
        .sum()
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?})", self.data)
        } else {
            write!(f, "[{:?}, ...])", &self.data[..8])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t[&[1, 2, 3]] = 7.5;
        assert_eq!(t[&[1, 2, 3]], 7.5);
        assert_eq!(t.data()[12 + 2 * 4 + 3], 7.5);
    }

    #[test]
    fn transpose_is_involution() {
        let mut rng = DivaRng::seed_from_u64(7);
        let t = Tensor::uniform(&[3, 5], -1.0, 1.0, &mut rng);
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn eye_times_scale() {
        let mut t = Tensor::eye(3);
        t.scale(2.0);
        assert_eq!(t.sum(), 6.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_assign_rejects_mismatch() {
        let mut a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        a.add_assign(&b);
    }

    #[test]
    fn norms_agree_with_manual() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert!((t.l2_norm() - 5.0).abs() < 1e-12);
        assert!((t.squared_norm() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = t.clone().reshape(&[4]);
        assert_eq!(r.data(), t.data());
    }
}

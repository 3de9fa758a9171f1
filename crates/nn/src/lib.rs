//! Neural-network layers with **per-example gradient** support — the
//! algorithmic substrate of DP-SGD (paper Section II-C, Algorithm 1).
//!
//! Standard SGD frameworks only materialize *per-batch* weight gradients;
//! DP-SGD additionally needs, for every layer, either
//!
//! 1. the full set of per-example weight gradients (vanilla DP-SGD, so they
//!    can be clipped and then reduced), or
//! 2. only the per-example gradient *norms* (the memory-efficient
//!    "reweighted" DP-SGD(R) of Lee & Kifer, where clipping is fused into a
//!    second backpropagation pass as a per-example loss scale).
//!
//! Every layer here therefore supports three gradient modes
//! ([`GradMode`]): `PerBatch`, `PerExample`, and `NormOnly`. The `NormOnly`
//! mode computes per-example gradients layer-by-layer, accumulates their
//! squared norms, and immediately discards them — which is exactly the
//! memory saving DP-SGD(R) exploits (paper Section II-C).
//!
//! Vanilla DP-SGD's clipped sum ([`Network::clipped_sum`]) streams the
//! examples through one recycled block of per-example rows (a
//! [`diva_tensor::Buffer`] from the shared buffer pool): each example's row
//! is written once, its norm taken while the row is hot, and the block
//! reduced with its clip factors by a column-split pass — the software
//! counterpart of DiVa's post-processing unit. `PerExample` materializes
//! the same rows as a `(B, P)` arena per layer ([`PerExampleGrads`]), the
//! oracle the stream matches bit for bit.
//!
//! Compute: every GEMM a layer issues runs on `diva_tensor`'s blocked
//! kernel, and the per-example fan-outs (`PerExample` / `NormOnly`) are
//! batch-parallel over the workspace-wide keep-alive pool
//! (`diva_tensor::parallel`) — nested GEMMs inside a fan-out are
//! scheduled hierarchically on the same pool (idle workers steal them;
//! results are bit-identical regardless). Convolution layers keep their
//! NCHW input from the forward (`diva_tensor::ConvInput`) and every GEMM
//! reads the lowered patch operand from it without forming it, so no
//! patch matrix is stored across DP-SGD(R)'s two backward passes. See
//! `ARCHITECTURE.md` at the workspace root for the full layer map.
//!
//! # Example
//!
//! ```
//! use diva_nn::{GradMode, Layer, Network};
//! use diva_tensor::{DivaRng, Tensor};
//!
//! let mut rng = DivaRng::seed_from_u64(0);
//! let net = Network::new(vec![
//!     Layer::dense(4, 8, true, &mut rng),
//!     Layer::relu(),
//!     Layer::dense(8, 3, true, &mut rng),
//! ]);
//! let x = Tensor::uniform(&[2, 4], -1.0, 1.0, &mut rng);
//! let (y, caches) = net.forward(&x);
//! assert_eq!(y.shape().dims(), &[2, 3]);
//! # let _ = caches;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv_layer;
mod dense;
mod embedding;
mod layer;
mod lstm;
mod network;
mod norm;
mod per_example;
mod pool;
mod simple;

pub use conv_layer::Conv2dLayer;
pub use dense::Dense;
pub use embedding::Embedding;
pub use layer::{BackwardOutput, GradMode, Layer, LayerCache, ParamGrads};
pub use lstm::Lstm;
pub use network::{Network, NetworkGrads};
pub use norm::GroupNorm;
pub use per_example::PerExampleGrads;
pub use pool::{AvgPool2d, MaxPool2d};
pub use simple::{Flatten, Relu, Sigmoid, Tanh};

/// Extracts example `i` from a batched tensor (first dimension = batch),
/// returning a tensor with leading dimension 1.
///
/// The fused convolution backward does not slice per example (it packs
/// each example's lowered input from the kept batch instead); this
/// survives as a public utility for the naive reference path in parity
/// tests and benchmarks.
///
/// # Panics
///
/// Panics if the tensor is rank 0 or `i` is out of bounds.
pub fn slice_example(t: &diva_tensor::Tensor, i: usize) -> diva_tensor::Tensor {
    let dims = t.shape().dims();
    assert!(!dims.is_empty(), "cannot slice a scalar tensor");
    let b = dims[0];
    assert!(i < b, "example index {i} out of bounds for batch {b}");
    let stride: usize = dims[1..].iter().product();
    let data = t.data()[i * stride..(i + 1) * stride].to_vec();
    let mut new_dims = vec![1usize];
    new_dims.extend_from_slice(&dims[1..]);
    diva_tensor::Tensor::from_vec(data, &new_dims)
}

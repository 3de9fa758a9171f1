//! Dense `f32` tensor substrate for the DiVa reproduction.
//!
//! This crate provides the minimal linear-algebra toolkit needed to implement
//! DP-SGD from scratch (see the `diva-nn` and `diva-dp` crates): row-major
//! dense tensors, GEMM in all transpose flavours, `im2col`/`col2im` lowering
//! of convolutions (the transformation the paper relies on to express every
//! training step as GEMM, Section II-D of the paper), elementwise kernels,
//! reductions, and seedable randomness (implemented here because
//! `rand`/`rand_distr` are not part of the approved dependency set):
//! [`DivaRng`], a xoshiro256++ generator with a Box–Muller sampler for
//! initialization and synthetic data, and [`add_gaussian_noise`], the
//! counter-based sampler behind DP-SGD's Gaussian mechanism. Its noise for
//! element `i` is a pure function of `(key, stream, i)`, computed by a
//! branch-free polynomial Box–Muller over fixed 128-sample blocks and
//! fanned out over the worker pool, so it is bitwise the same at every
//! thread count and on every target.
//!
//! Every [`Tensor`] stores its elements in a [`Buffer`]: large buffers go
//! back to one process-wide, bounded pool when dropped, so a training loop
//! reuses the same pages step after step instead of faulting them in again
//! ([`buffer_stats`] reports the pool's counters).
//!
//! The crate uses no external BLAS, and unsafe code is denied crate-wide
//! except at one narrow, audited site: the lifetime erasure inside the
//! persistent worker pool (`pool` module — sound because a region never
//! returns before all its tasks finish). GEMM is a cache-blocked,
//! register-tiled, multi-threaded kernel (see the `gemm` module and
//! [`parallel`]) whose micro-kernels are safe Rust written so the
//! autovectorizer emits wide FMA code; the seed's scalar loop is retained
//! as [`matmul_reference`] and [`Kernel::Reference`] for parity testing and
//! benchmarking. The convolutions run their GEMMs on NCHW data in place,
//! reading the lowered input straight from the NCHW batch instead of
//! storing a patch matrix, with the bits of the whole-batch lowering (see
//! [`ConvInput`] and [`conv2d_backward_data`]).
//!
//! # Execution configuration
//!
//! [`Backend`] is the only execution setting: a worker-thread count and a
//! GEMM [`Kernel`], installed per thread with [`Backend::install`] and
//! carried with every pool task (see [`parallel`]). Without one, a thread
//! runs [`Backend::auto`]: `DIVA_NUM_THREADS` workers (else one per core)
//! on [`Kernel::Safe`].
//!
//! # Example
//!
//! ```
//! use diva_tensor::{Tensor, matmul};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bf16;
mod buffer;
mod conv;
pub mod fft;
mod gemm;
mod matmul;
mod noise;
mod ops;
pub mod parallel;
mod pool;
mod rng;
mod shape;
mod tensor;

pub use bf16::{round_bf16, BF16_MAX_RELATIVE_ERROR};
pub use buffer::{buffer_stats, Buffer, BufferStats};
pub use conv::{
    col2im, conv2d, conv2d_backward_data, conv2d_backward_weight, im2col, nchw_to_rows, Conv2dGeom,
    ConvInput,
};
pub use gemm::{avx512_enabled, simd_available, simd_enabled, Kernel};
pub use matmul::{
    matmul, matmul_nt, matmul_reference, matmul_tn, matmul_tt, outer_product_accumulate,
};
pub use noise::add_gaussian_noise;
pub use ops::{
    add_scaled, argmax_rows, relu, relu_backward, softmax_cross_entropy, sq_norm, weighted_row_sum,
    SoftmaxCrossEntropy,
};
pub use parallel::Backend;
pub use rng::DivaRng;
pub use shape::Shape;
pub use tensor::Tensor;

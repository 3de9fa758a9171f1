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
//! The crate uses no external BLAS, and unsafe code is denied crate-wide
//! except at two narrow, audited sites: the lifetime erasure inside the
//! persistent worker pool (`pool` module — sound because a region never
//! returns before all its tasks finish) and the AVX2+FMA intrinsics kernel
//! (`simd` module, compiled only under the `simd` cargo feature). GEMM is a
//! cache-blocked, register-tiled, multi-threaded kernel (see the `gemm`
//! module and [`parallel`]): the safe micro-kernel is written so the
//! autovectorizer emits wide FMA code, the optional explicit-SIMD kernel is
//! bit-identical to it and runtime-detected, and the seed's scalar loop is
//! retained as [`matmul_reference`] and [`Kernel::Reference`] for parity
//! testing and benchmarking.
//!
//! # Feature flags
//!
//! * `simd` — compiles the explicit AVX2+FMA and AVX-512 6×16
//!   micro-kernels ([`simd_available`], [`Kernel::Avx2`],
//!   [`Kernel::Avx512`]). Off by default; results are bit-identical with
//!   the feature on or off, on any CPU.
//!
//! # Execution configuration
//!
//! [`Backend`] is the only execution setting: a worker-thread count and a
//! GEMM [`Kernel`], installed per thread with [`Backend::install`] and
//! carried with every pool task (see [`parallel`]). Without one, a thread
//! runs [`Backend::auto`]: `DIVA_NUM_THREADS` workers (else one per core)
//! on [`Kernel::best`].
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
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd;
mod tensor;

pub use bf16::{round_bf16, BF16_MAX_RELATIVE_ERROR};
pub use conv::{
    col2im, conv2d, conv2d_backward_data, conv2d_backward_data_from_rows, conv2d_backward_weight,
    im2col, nchw_to_rows, Conv2dGeom, PatchBuffer,
};
pub use gemm::{avx512_available, avx512_enabled, simd_available, simd_enabled, Kernel, PackCache};
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

//! Differential-privacy machinery for DP-SGD training, reproducing the
//! algorithms the DiVa paper characterizes (Algorithm 1):
//!
//! * **Vanilla DP-SGD** (Abadi et al., CCS'16): per-example gradients →
//!   per-example L2 norms → clip → reduce → Gaussian noise.
//! * **Reweighted DP-SGD(R)** (Lee & Kifer, PoPETs'21): a first
//!   backpropagation computes per-example gradient *norms only*; the loss is
//!   then reweighted by the clip factors and a second backpropagation
//!   produces the already-clipped per-batch gradient. Mathematically
//!   identical output, ~B× smaller gradient memory.
//!
//! Plus a production-scale privacy-accounting engine:
//!
//! * a [`DpEvent`] algebra describing what was released (Gaussian /
//!   Laplace / Poisson-subsampled / composed), evaluated by
//!   interchangeable [`Accountant`]s;
//! * the Rényi-DP (moments) accountant ([`RdpEventAccountant`]) — cheap,
//!   composable, slightly loose in its (ε, δ) conversion;
//! * a privacy-loss-distribution ([`PldAccountant`]) accountant with
//!   FFT-based composition — near exact, tighter than RDP on every
//!   tracked configuration (the property suite pins `ε_PLD ≤ ε_RDP`);
//! * analytical Gaussian calibration (Balle & Wang 2018,
//!   [`gaussian_sigma`]) and accountant-driven DP-SGD noise search
//!   ([`calibrate_noise`]);
//! * a vectorized batch-ε API ([`batch_epsilons`]) reusing composition
//!   prefixes across step counts;
//!
//! and the supporting cast: the Gaussian mechanism and synthetic dataset
//! generators used by tests and examples.
//!
//! Execution: a [`DpTrainer`] owns a `diva_tensor::Backend` (thread-count
//! configuration) and installs it around every step, so all GEMMs and
//! per-example fan-outs of a step run on the workspace-wide keep-alive
//! pool at the trainer's width; selecting a backend with
//! [`DpTrainerBuilder::backend`] prewarms that pool to the chosen width.
//! See `ARCHITECTURE.md` at the workspace root.
//!
//! # Example
//!
//! ```
//! use diva_dp::{DpSgdConfig, TrainingAlgorithm};
//!
//! let cfg = DpSgdConfig {
//!     algorithm: TrainingAlgorithm::DpSgdReweighted,
//!     clip_norm: 1.0,
//!     noise_multiplier: 1.1,
//!     learning_rate: 0.1,
//! };
//! assert!(cfg.is_private());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Compiles and runs the workspace README's Rust code blocks (the
/// quick-start) as doc-tests, so the README cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

mod accountant;
mod batch;
mod calibrate;
mod clip;
mod error;
mod event;
mod mechanism;
mod optimizer;
mod pld;
mod query;
mod sampling;
mod synthetic;

pub use batch::batch_epsilons;
pub use calibrate::{
    calibrate_noise, classic_gaussian_sigma, gaussian_delta, gaussian_epsilon, gaussian_sigma,
};
pub use clip::{clip_factors, ClipSummary};
pub use error::AccountError;
pub use event::{event_epsilon, Accountant, AccountantKind, DpEvent, RdpEventAccountant};
pub use mechanism::GaussianMechanism;
pub use optimizer::{
    DpSgdConfig, DpTrainer, DpTrainerBuilder, PrivacySpent, StepReport, TrainingAlgorithm,
};
pub use pld::{Pld, PldAccountant, PldOptions};
pub use query::{answer_epsilon_query, EpsilonAnswer, EpsilonQuery};
pub use sampling::poisson_sample;
pub use synthetic::{make_blobs, make_image_blobs, make_sequence_blobs, Dataset};

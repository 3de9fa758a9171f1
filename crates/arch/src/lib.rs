//! Hardware architecture description for the DiVa reproduction.
//!
//! This crate is the shared vocabulary of the simulator stack: PE-array
//! geometry, dataflows (paper Figure 3 / Section IV), memory-system
//! configuration (paper Table II), SRAM bandwidth requirements (paper
//! Table I), GEMM shapes (paper Figure 6) and the taxonomy of training-step
//! operations whose latencies the paper breaks down (Figures 5 and 14).
//!
//! # Example
//!
//! ```
//! use diva_arch::{AcceleratorConfig, Dataflow};
//!
//! let cfg = AcceleratorConfig::tpu_v3_like(Dataflow::OuterProduct);
//! assert_eq!(cfg.pe.rows, 128);
//! assert_eq!(cfg.pe.macs(), 16_384);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod config;
mod gemm;
mod ops;
pub mod params;

pub use bandwidth::{sram_bandwidth, SramBandwidth};
pub use config::{AcceleratorConfig, ConfigError, MemoryConfig, PeArray};
pub use gemm::{DataType, GemmShape};
pub use ops::{Dataflow, Phase, TrainingOp, TrainingOpKind, VectorOpKind};
pub use params::{ParamSpec, ParamValue};

/// Normalizes a label for lenient matching: lowercased ASCII
/// alphanumerics only, so `"DiVa w/o PPU"` → `"divawoppu"`. The single
/// implementation behind dataflow/preset parsing here and in
/// `diva_core`, and the scenario layer's CLI label filters.
pub fn norm_label(label: &str) -> String {
    label
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

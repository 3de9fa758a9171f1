//! Accelerator configuration (paper Table II) and its validation.

use std::fmt;

use crate::ops::Dataflow;

/// Processing-element array geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PeArray {
    /// Array height `PE_H` (rows).
    pub rows: u64,
    /// Array width `PE_W` (columns).
    pub cols: u64,
}

impl PeArray {
    /// Creates an array geometry.
    pub fn new(rows: u64, cols: u64) -> Self {
        Self { rows, cols }
    }

    /// Number of MAC units (`rows × cols`).
    pub fn macs(&self) -> u64 {
        self.rows * self.cols
    }
}

impl fmt::Display for PeArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// Off-chip memory subsystem configuration (paper Table II bottom half).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryConfig {
    /// Number of independent memory channels.
    pub channels: u64,
    /// Aggregate bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Access latency in accelerator core cycles.
    pub access_latency_cycles: u64,
    /// Total capacity in bytes (16 GB for TPUv3's HBM).
    pub capacity_bytes: u64,
}

impl MemoryConfig {
    /// The paper's Table II memory subsystem: 16 channels, 450 GB/s,
    /// 100-cycle latency, 16 GB HBM.
    pub fn tpu_v3_like() -> Self {
        Self {
            channels: 16,
            bandwidth_bytes_per_sec: 450.0e9,
            access_latency_cycles: 100,
            capacity_bytes: 16 * (1 << 30),
        }
    }

    /// Bandwidth expressed in bytes per core clock at `freq_hz`.
    pub fn bytes_per_cycle(&self, freq_hz: f64) -> f64 {
        self.bandwidth_bytes_per_sec / freq_hz
    }
}

/// Full accelerator configuration (paper Table II).
#[derive(Clone, Debug, PartialEq)]
pub struct AcceleratorConfig {
    /// PE array geometry (`128×128` in the baseline).
    pub pe: PeArray,
    /// Core clock in Hz (940 MHz in the baseline).
    pub freq_hz: f64,
    /// On-chip SRAM capacity in bytes (16 MB in the baseline).
    pub sram_bytes: u64,
    /// Off-chip memory subsystem.
    pub memory: MemoryConfig,
    /// GEMM-engine dataflow.
    pub dataflow: Dataflow,
    /// RHS fill rate for the WS dataflow, in rows per cycle (8 for TPUv3,
    /// per Table I: RHS bandwidth `PE_W × 8 × 2B`).
    pub rhs_fill_rows_per_cycle: u64,
    /// Output drain rate `R` in rows per cycle for output-stationary
    /// dataflows (8 in DiVa's default configuration, Section IV-C).
    pub drain_rows_per_cycle: u64,
    /// Whether a post-processing unit (PPU) is attached (Section IV-C).
    pub has_ppu: bool,
    /// Whether output-stationary engines have shadow accumulator latches so
    /// a tile's drain overlaps the next tile's compute. The paper's DiVa
    /// drains serially (`128/R` cycles per tile); this knob is an ablation
    /// quantifying what double-buffered accumulators would buy.
    pub drain_overlap: bool,
}

impl AcceleratorConfig {
    /// The paper's default configuration (Table II) with the given dataflow:
    /// 128×128 PEs at 940 MHz, 16 MB SRAM, TPUv3-like memory, R = 8.
    ///
    /// The PPU is attached iff the dataflow is output-stationary (the paper
    /// shows WS cannot exploit it, Section IV-C).
    pub fn tpu_v3_like(dataflow: Dataflow) -> Self {
        Self {
            pe: PeArray::new(128, 128),
            freq_hz: 940.0e6,
            sram_bytes: 16 << 20,
            memory: MemoryConfig::tpu_v3_like(),
            dataflow,
            rhs_fill_rows_per_cycle: 8,
            drain_rows_per_cycle: 8,
            has_ppu: dataflow.is_output_stationary(),
            drain_overlap: false,
        }
    }

    /// Peak MAC throughput in MACs per second.
    pub fn peak_macs_per_sec(&self) -> f64 {
        self.pe.macs() as f64 * self.freq_hz
    }

    /// Peak throughput in TFLOPS (2 FLOPs per MAC). The baseline
    /// configuration yields the paper's 29.5 peak TFLOPS (Table III).
    pub fn peak_tflops(&self) -> f64 {
        2.0 * self.peak_macs_per_sec() / 1e12
    }

    /// Converts a cycle count to seconds at this configuration's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pe.rows == 0 || self.pe.cols == 0 {
            return Err(ConfigError::EmptyPeArray);
        }
        if self.freq_hz <= 0.0 || !self.freq_hz.is_finite() {
            return Err(ConfigError::InvalidFrequency(self.freq_hz));
        }
        if self.sram_bytes == 0 {
            return Err(ConfigError::NoSram);
        }
        if self.memory.bandwidth_bytes_per_sec <= 0.0
            || !self.memory.bandwidth_bytes_per_sec.is_finite()
        {
            return Err(ConfigError::InvalidBandwidth(
                self.memory.bandwidth_bytes_per_sec,
            ));
        }
        if self.drain_rows_per_cycle == 0 || self.drain_rows_per_cycle > self.pe.rows {
            return Err(ConfigError::InvalidDrainRate(self.drain_rows_per_cycle));
        }
        if self.rhs_fill_rows_per_cycle == 0 {
            return Err(ConfigError::InvalidFillRate(self.rhs_fill_rows_per_cycle));
        }
        if self.has_ppu && !self.dataflow.is_output_stationary() {
            return Err(ConfigError::PpuRequiresOutputStationary(self.dataflow));
        }
        Ok(())
    }
}

/// Validation, parameter-registry and design-point errors — the single
/// error type of the configuration layer.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// PE array has zero rows or columns.
    EmptyPeArray,
    /// Clock frequency is non-positive or non-finite.
    InvalidFrequency(f64),
    /// SRAM capacity is zero.
    NoSram,
    /// Memory bandwidth is non-positive or non-finite.
    InvalidBandwidth(f64),
    /// Drain rate is zero or exceeds the PE row count.
    InvalidDrainRate(u64),
    /// RHS fill rate is zero.
    InvalidFillRate(u64),
    /// A PPU was attached to a dataflow that cannot feed it.
    PpuRequiresOutputStationary(Dataflow),
    /// A parameter name not present in the registry
    /// ([`crate::params::param_names`]); the message lists every
    /// registered name.
    UnknownParameter(String),
    /// A parameter value string that does not parse as its type.
    InvalidValue {
        /// The registered parameter name.
        param: String,
        /// The offending input.
        value: String,
        /// What the parameter expects, e.g. `"an unsigned integer"`.
        expected: &'static str,
    },
    /// A design-point preset name that matches none of the known presets.
    UnknownPreset {
        /// The offending input.
        name: String,
        /// Comma-joined known preset names, for the message.
        available: String,
    },
    /// A design-point spec string that is not `preset[:k=v,...]`.
    MalformedSpec(String),
    /// A `--set`/`--sweep`-style assignment that is not `KEY=VALUE`
    /// (missing `=`, empty key, or an empty value list).
    MalformedAssignment {
        /// The offending input.
        spec: String,
        /// The expected shape, e.g. `"KEY=VALUE"` or `"KEY=V1,V2,..."`.
        usage: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyPeArray => write!(f, "PE array must have positive dimensions"),
            ConfigError::InvalidFrequency(v) => write!(f, "invalid clock frequency {v} Hz"),
            ConfigError::NoSram => write!(f, "SRAM capacity must be positive"),
            ConfigError::InvalidBandwidth(v) => write!(f, "invalid memory bandwidth {v} B/s"),
            ConfigError::InvalidDrainRate(v) => {
                write!(f, "drain rate {v} rows/cycle is out of range")
            }
            ConfigError::InvalidFillRate(v) => write!(f, "fill rate {v} rows/cycle is invalid"),
            ConfigError::PpuRequiresOutputStationary(d) => {
                write!(f, "PPU cannot be fed by the {d} dataflow")
            }
            ConfigError::UnknownParameter(name) => write!(
                f,
                "unknown parameter {name:?}; available: {}",
                crate::params::param_names().join(", ")
            ),
            ConfigError::InvalidValue {
                param,
                value,
                expected,
            } => write!(f, "parameter {param}: {value:?} is not {expected}"),
            ConfigError::UnknownPreset { name, available } => {
                write!(
                    f,
                    "unknown design-point preset {name:?}; available: {available}"
                )
            }
            ConfigError::MalformedSpec(spec) => write!(
                f,
                "malformed design-point spec {spec:?}; want preset[:key=value,...]"
            ),
            ConfigError::MalformedAssignment { spec, usage } => {
                write!(f, "malformed assignment {spec:?}; want {usage}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let cfg = AcceleratorConfig::tpu_v3_like(Dataflow::WeightStationary);
        assert_eq!(cfg.pe, PeArray::new(128, 128));
        assert_eq!(cfg.freq_hz, 940.0e6);
        assert_eq!(cfg.sram_bytes, 16 << 20);
        assert_eq!(cfg.memory.channels, 16);
        assert_eq!(cfg.memory.access_latency_cycles, 100);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn peak_tflops_matches_table_iii() {
        // Table III: 16,384 MACs at 940 MHz → 29.5 peak TFLOPS (BF16/FP32).
        let cfg = AcceleratorConfig::tpu_v3_like(Dataflow::OuterProduct);
        assert!(
            (cfg.peak_tflops() - 30.8).abs() < 1.5,
            "{}",
            cfg.peak_tflops()
        );
        assert!((cfg.peak_tflops() - 29.5).abs() / 29.5 < 0.05);
    }

    #[test]
    fn ws_has_no_ppu_by_default() {
        assert!(!AcceleratorConfig::tpu_v3_like(Dataflow::WeightStationary).has_ppu);
        assert!(AcceleratorConfig::tpu_v3_like(Dataflow::OuterProduct).has_ppu);
    }

    #[test]
    fn builder_rejects_bad_drain_rate() {
        let err = AcceleratorConfig {
            drain_rows_per_cycle: 4096,
            ..AcceleratorConfig::tpu_v3_like(Dataflow::OuterProduct)
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidDrainRate(4096));
    }

    #[test]
    fn builder_rejects_ppu_on_ws() {
        let err = AcceleratorConfig {
            has_ppu: true,
            ..AcceleratorConfig::tpu_v3_like(Dataflow::WeightStationary)
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err, ConfigError::PpuRequiresOutputStationary(_)));
    }

    #[test]
    fn bytes_per_cycle_at_table_ii_rates() {
        let cfg = AcceleratorConfig::tpu_v3_like(Dataflow::WeightStationary);
        let bpc = cfg.memory.bytes_per_cycle(cfg.freq_hz);
        // 450 GB/s at 940 MHz ≈ 478.7 bytes per cycle.
        assert!((bpc - 478.7).abs() < 1.0, "{bpc}");
    }
}

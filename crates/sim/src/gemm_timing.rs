//! Analytic GEMM timing per dataflow: compute cycles (exactly matching the
//! functional simulators in `diva-pearray`), DRAM traffic from a tiled
//! SRAM-reuse model, and the compute/memory overlap.

use diva_arch::{AcceleratorConfig, Dataflow, GemmShape};

use crate::tiles::tile_sizes;

/// Byte sizes per the paper's Table I: BF16 inputs, FP32 outputs.
const IN_BYTES: u64 = 2;
const OUT_BYTES: u64 = 4;

/// Timing of one (possibly batched) GEMM on a modeled engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GemmTiming {
    /// Pure compute-pipeline cycles (fill + stream + drain), all batch
    /// instances summed. Matches the functional simulators exactly.
    pub compute_cycles: u64,
    /// DRAM bytes read (LHS + RHS + any output re-reads).
    pub dram_read_bytes: u64,
    /// DRAM bytes written (outputs, including partial-sum spills).
    pub dram_write_bytes: u64,
    /// On-chip SRAM bytes read (operand streaming into the PE array).
    pub sram_read_bytes: u64,
    /// On-chip SRAM bytes written (outputs drained from the PE array).
    pub sram_write_bytes: u64,
    /// Cycles the memory system needs for the traffic above.
    pub memory_cycles: u64,
    /// End-to-end cycles: `max(compute, memory) + access latency`.
    pub total_cycles: u64,
    /// Useful MACs performed.
    pub macs: u64,
    /// Effective FLOPS utilization against peak over `total_cycles`.
    pub utilization: f64,
}

impl GemmTiming {
    /// Effective throughput in TFLOPS at the given clock.
    pub fn effective_tflops(&self, freq_hz: f64) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let seconds = self.total_cycles as f64 / freq_hz;
        2.0 * self.macs as f64 / seconds / 1e12
    }
}

/// Computes pure compute-pipeline cycles for ONE GEMM instance on the given
/// configuration. Exactly mirrors `diva-pearray`'s tiled execution:
///
/// * **WS**: for each (K-tile, N-tile) weight tile:
///   `ceil(K_t / fill_rate) + (M + PE_H + PE_W − 2)`.
/// * **OS**: for each (M-tile, N-tile) output tile:
///   `(K + PE_H + PE_W − 2) + ceil(M_t / R)`.
/// * **Outer-product**: for each (M-tile, N-tile) output tile:
///   `K + ceil(M_t / R)`.
///
/// With `config.drain_overlap` (an analytic-only ablation: shadow
/// accumulator latches), the drain of tile *i* overlaps the compute of tile
/// *i+1*: `compute₁ + Σᵢ max(computeᵢ, drainᵢ₋₁) + drain_last`.
pub fn compute_cycles(config: &AcceleratorConfig, shape: GemmShape) -> u64 {
    if shape.is_empty() {
        return 0;
    }
    let (rows, cols) = (config.pe.rows, config.pe.cols);
    match config.dataflow {
        Dataflow::WeightStationary => {
            let stream = shape.m + rows + cols - 2;
            let n_tiles = shape.n.div_ceil(cols);
            tile_sizes(shape.k, rows)
                .iter()
                .map(|kt| (kt.div_ceil(config.rhs_fill_rows_per_cycle) + stream) * n_tiles)
                .sum()
        }
        Dataflow::OutputStationary => {
            let stream = shape.k + rows + cols - 2;
            output_stationary_cycles(config, shape, |_| stream)
        }
        Dataflow::OuterProduct => output_stationary_cycles(config, shape, |_| shape.k),
    }
}

/// Shared tile scheduler for the two output-stationary dataflows:
/// `compute_of(m_t)` gives the streaming cycles of one output tile.
fn output_stationary_cycles(
    config: &AcceleratorConfig,
    shape: GemmShape,
    compute_of: impl Fn(u64) -> u64,
) -> u64 {
    let (rows, cols) = (config.pe.rows, config.pe.cols);
    let n_tiles = shape.n.div_ceil(cols);
    // Tiles in execution order: M outer, N inner (N tiles share M_t).
    let tiles: Vec<(u64, u64)> = tile_sizes(shape.m, rows)
        .iter()
        .flat_map(|&mt| {
            let drain = mt.div_ceil(config.drain_rows_per_cycle);
            std::iter::repeat_n((compute_of(mt), drain), n_tiles as usize)
        })
        .collect();
    if !config.drain_overlap {
        return tiles.iter().map(|(c, d)| c + d).sum();
    }
    // Shadow accumulators: tile i+1 computes while tile i drains.
    let mut cycles = 0u64;
    let mut prev_drain = 0u64;
    for &(compute, drain) in &tiles {
        cycles += compute.max(prev_drain);
        prev_drain = drain;
    }
    cycles + prev_drain
}

/// DRAM traffic for ONE GEMM instance under a tiled SRAM-reuse model.
///
/// Returns `(read_bytes, write_bytes)`. `write_output` controls whether the
/// product is written back at all (false when an output-stationary engine
/// streams it straight into the PPU).
pub fn dram_traffic(
    config: &AcceleratorConfig,
    shape: GemmShape,
    write_output: bool,
) -> (u64, u64) {
    if shape.is_empty() {
        return (0, 0);
    }
    let (rows, cols) = (config.pe.rows, config.pe.cols);
    let lhs = shape.lhs_elems() * IN_BYTES;
    let rhs = shape.rhs_elems() * IN_BYTES;
    let out = shape.out_elems() * OUT_BYTES;
    // Half the SRAM per resident operand: the other half double-buffers the
    // streaming operand.
    let resident_budget = config.sram_bytes / 2;

    match config.dataflow {
        Dataflow::WeightStationary => {
            // Loop order: K-tiles outer, N-tiles inner (weights latched per
            // tile). The LHS K-stripe (M × K_t) is reused across the inner N
            // loop if it fits on-chip, else it is re-streamed per N-tile.
            let n_tiles = shape.n.div_ceil(cols);
            let k_tiles = shape.k.div_ceil(rows);
            let lhs_stripe = shape.m * rows.min(shape.k) * IN_BYTES;
            let lhs_reads = if lhs_stripe <= resident_budget {
                lhs
            } else {
                lhs * n_tiles
            };
            // Each weight tile is latched exactly once.
            let rhs_reads = rhs;
            // Partial sums accumulate across K-tiles. If the output fits
            // on-chip it is written once at the end; otherwise every K pass
            // spills partials and all but the first pass re-reads them.
            let (out_reads, out_writes) = if out <= resident_budget {
                (0, if write_output { out } else { 0 })
            } else {
                (out * (k_tiles - 1), out * k_tiles)
            };
            (lhs_reads + rhs_reads + out_reads, out_writes)
        }
        Dataflow::OutputStationary | Dataflow::OuterProduct => {
            // Loop order: M-tiles outer, N-tiles inner. The LHS M-stripe
            // (M_t × K) is reused across the inner loop; the RHS is
            // re-streamed per M-tile unless it fits on-chip.
            let m_tiles = shape.m.div_ceil(rows);
            let lhs_reads = lhs;
            let rhs_reads = if rhs <= resident_budget {
                rhs
            } else {
                rhs * m_tiles
            };
            let out_writes = if write_output { out } else { 0 };
            (lhs_reads + rhs_reads, out_writes)
        }
    }
}

/// On-chip SRAM traffic for ONE GEMM instance: operand streams into the PE
/// array and output drains out of it, per tile pass.
///
/// Returns `(read_bytes, write_bytes)`. Unlike DRAM traffic this counts
/// every re-stream (tiles re-read operands from SRAM even when DRAM reuse
/// avoids refetching them off-chip).
pub fn sram_traffic(
    config: &AcceleratorConfig,
    shape: GemmShape,
    drain_output: bool,
) -> (u64, u64) {
    if shape.is_empty() {
        return (0, 0);
    }
    let (rows, cols) = (config.pe.rows, config.pe.cols);
    match config.dataflow {
        Dataflow::WeightStationary => {
            // Per weight tile: the K-stripe of the LHS streams in and the
            // weight tile is latched; each K pass rewrites output partials.
            let n_tiles = shape.n.div_ceil(cols);
            let k_tiles = shape.k.div_ceil(rows);
            let lhs_stream = shape.lhs_elems() * IN_BYTES * n_tiles;
            let rhs_fill = shape.rhs_elems() * IN_BYTES;
            let out_writes = shape.out_elems() * OUT_BYTES * k_tiles;
            let out_rereads = shape.out_elems() * OUT_BYTES * (k_tiles - 1);
            (lhs_stream + rhs_fill + out_rereads, out_writes)
        }
        Dataflow::OutputStationary | Dataflow::OuterProduct => {
            // Per output tile: the LHS stripe streams once, the RHS stripe
            // streams once per M tile; the output drains exactly once.
            let m_tiles = shape.m.div_ceil(rows);
            let lhs_stream = shape.lhs_elems() * IN_BYTES;
            let rhs_stream = shape.rhs_elems() * IN_BYTES * m_tiles;
            let out_writes = if drain_output {
                shape.out_elems() * OUT_BYTES
            } else {
                0 // drained straight into the PPU
            };
            (lhs_stream + rhs_stream, out_writes)
        }
    }
}

/// Assembles the full [`GemmTiming`] for a batched GEMM (`count` identical,
/// independent instances — the per-example weight-gradient pattern).
pub fn gemm_timing(
    config: &AcceleratorConfig,
    shape: GemmShape,
    count: u64,
    write_output: bool,
) -> GemmTiming {
    let compute = compute_cycles(config, shape) * count;
    let (read1, write1) = dram_traffic(config, shape, write_output);
    let (read, write) = (read1 * count, write1 * count);
    let (sram_read1, sram_write1) = sram_traffic(config, shape, write_output);
    let (sram_read, sram_write) = (sram_read1 * count, sram_write1 * count);
    let bpc = config.memory.bytes_per_cycle(config.freq_hz);
    let memory_cycles = ((read + write) as f64 / bpc).ceil() as u64;
    let total = compute.max(memory_cycles)
        + if compute == 0 && memory_cycles == 0 {
            0
        } else {
            config.memory.access_latency_cycles
        };
    let macs = shape.macs() * count;
    let utilization = if total == 0 {
        0.0
    } else {
        macs as f64 / (total as f64 * config.pe.macs() as f64)
    };
    GemmTiming {
        compute_cycles: compute,
        dram_read_bytes: read,
        dram_write_bytes: write,
        sram_read_bytes: sram_read,
        sram_write_bytes: sram_write,
        memory_cycles,
        total_cycles: total,
        macs,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(df: Dataflow) -> AcceleratorConfig {
        AcceleratorConfig::tpu_v3_like(df)
    }

    #[test]
    fn ws_cycles_formula() {
        let c = cfg(Dataflow::WeightStationary);
        // One weight tile, K=64 → fill 8 cycles, stream M+254.
        let t = compute_cycles(&c, GemmShape::new(100, 64, 128));
        assert_eq!(t, 8 + 100 + 254);
        // Two N tiles double it.
        let t2 = compute_cycles(&c, GemmShape::new(100, 64, 129));
        assert_eq!(t2, 2 * (8 + 100 + 254));
    }

    #[test]
    fn os_cycles_formula() {
        let c = cfg(Dataflow::OutputStationary);
        let t = compute_cycles(&c, GemmShape::new(128, 64, 128));
        assert_eq!(t, 64 + 254 + 16);
    }

    #[test]
    fn outer_product_cycles_are_k_plus_drain() {
        let c = cfg(Dataflow::OuterProduct);
        let t = compute_cycles(&c, GemmShape::new(128, 64, 128));
        assert_eq!(t, 64 + 16);
        // K-independence: a K=1 tile still costs only 1 + drain.
        let t1 = compute_cycles(&c, GemmShape::new(128, 1, 128));
        assert_eq!(t1, 1 + 16);
    }

    #[test]
    fn outer_product_dominates_ws_on_small_k() {
        // Compare engine efficiency in isolation (ephemeral outputs, as in
        // DP-SGD(R) norm fusion): with the output write-back suppressed the
        // small-K pathology is purely a dataflow property.
        let shape = GemmShape::new(1024, 4, 512);
        let ws = gemm_timing(&cfg(Dataflow::WeightStationary), shape, 1, false);
        let op = gemm_timing(&cfg(Dataflow::OuterProduct), shape, 1, false);
        assert!(
            op.utilization > 3.0 * ws.utilization,
            "OP {} vs WS {}",
            op.utilization,
            ws.utilization
        );
        // With persistent outputs both engines become write-bandwidth bound
        // (the vanilla DP-SGD situation, paper Section III-C).
        let ws_w = gemm_timing(&cfg(Dataflow::WeightStationary), shape, 1, true);
        let op_w = gemm_timing(&cfg(Dataflow::OuterProduct), shape, 1, true);
        assert!(op_w.memory_cycles >= op_w.compute_cycles);
        assert!(op_w.utilization < 2.0 * ws_w.utilization);
    }

    #[test]
    fn suppressing_output_removes_write_traffic() {
        let shape = GemmShape::new(4608, 16, 512);
        let c = cfg(Dataflow::OuterProduct);
        let with = gemm_timing(&c, shape, 1, true);
        let without = gemm_timing(&c, shape, 1, false);
        assert_eq!(without.dram_write_bytes, 0);
        assert!(with.dram_write_bytes > 0);
        assert!(without.total_cycles <= with.total_cycles);
    }

    #[test]
    fn large_outputs_spill_partials_under_ws() {
        // Output (16Ki x 16Ki x 4B = 1 GiB) cannot stay on-chip; K spans two
        // tiles, so partials spill once and are re-read once.
        let c = cfg(Dataflow::WeightStationary);
        let shape = GemmShape::new(16384, 256, 16384);
        let (read, write) = dram_traffic(&c, shape, true);
        let out = shape.out_elems() * 4;
        assert_eq!(write, out * 2);
        assert!(read > out); // includes the partial re-read
    }

    #[test]
    fn batched_timing_scales_linearly() {
        let c = cfg(Dataflow::OuterProduct);
        let shape = GemmShape::new(512, 16, 512);
        let one = gemm_timing(&c, shape, 1, true);
        let many = gemm_timing(&c, shape, 8, true);
        assert_eq!(many.compute_cycles, 8 * one.compute_cycles);
        assert_eq!(many.dram_read_bytes, 8 * one.dram_read_bytes);
        assert_eq!(many.macs, 8 * one.macs);
    }

    #[test]
    fn memory_bound_gemm_is_limited_by_bandwidth() {
        // One outer-product tile (K = 1) writing back its full FP32 output:
        // 17 compute cycles vs ~64 KB of write traffic.
        let c = cfg(Dataflow::OuterProduct);
        let t = gemm_timing(&c, GemmShape::new(128, 1, 128), 1, true);
        assert!(t.memory_cycles > t.compute_cycles);
        assert_eq!(
            t.total_cycles,
            t.memory_cycles + c.memory.access_latency_cycles
        );
    }

    #[test]
    fn drain_overlap_hides_drain_behind_compute() {
        let mut c = cfg(Dataflow::OuterProduct);
        // 4 full M-tiles, 1 N-tile; K = 64, drain = 16.
        let shape = GemmShape::new(512, 64, 128);
        let serial = compute_cycles(&c, shape);
        assert_eq!(serial, 4 * (64 + 16));
        c.drain_overlap = true;
        let overlapped = compute_cycles(&c, shape);
        // First compute + 3 × max(64, 16) + final drain.
        assert_eq!(overlapped, 64 + 3 * 64 + 16);
        assert!(overlapped < serial);
    }

    #[test]
    fn drain_overlap_never_hurts() {
        for df in [Dataflow::OutputStationary, Dataflow::OuterProduct] {
            let mut with = cfg(df);
            with.drain_overlap = true;
            let without = cfg(df);
            for shape in [
                GemmShape::new(1, 1, 1),
                GemmShape::new(4608, 16, 512),
                GemmShape::new(300, 7, 300),
            ] {
                assert!(
                    compute_cycles(&with, shape) <= compute_cycles(&without, shape),
                    "{df}: {shape}"
                );
            }
        }
    }

    #[test]
    fn empty_shape_costs_nothing() {
        let c = cfg(Dataflow::WeightStationary);
        let t = gemm_timing(&c, GemmShape::new(0, 10, 10), 1, true);
        assert_eq!(t.total_cycles, 0);
        assert_eq!(t.utilization, 0.0);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        for df in Dataflow::ALL {
            let c = AcceleratorConfig::tpu_v3_like(df);
            c.validate().unwrap();
            for shape in [
                GemmShape::new(128, 128, 128),
                GemmShape::new(4096, 4096, 4096),
                GemmShape::new(1, 1, 1),
                GemmShape::new(1000, 3, 7),
            ] {
                let t = gemm_timing(&c, shape, 1, true);
                assert!(
                    t.utilization <= 1.0 + 1e-12,
                    "{df}: {shape} -> {}",
                    t.utilization
                );
            }
        }
    }
}

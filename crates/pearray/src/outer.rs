//! DiVa's outer-product GEMM engine, simulated cycle-by-cycle
//! (paper Figure 9).
//!
//! Every clock, one column of the LHS matrix (length `M_t`) and one row of
//! the RHS matrix (length `N_t`) are broadcast over per-row and per-column
//! buses; all `M_t × N_t` PEs perform one MAC into their local accumulator.
//! After `K` broadcast cycles the output tile is complete and is drained at
//! `R` rows per cycle — either to SRAM or directly into the PPU for
//! on-the-fly gradient-norm derivation.
//!
//! The engine therefore sustains `M_t × N_t` MACs *every* cycle regardless
//! of K — the property that rescues DP-SGD's small-K per-example gradient
//! GEMMs (Section IV-B).

use diva_tensor::Tensor;

use crate::run::GemmRun;

/// A functional outer-product PE array of `rows × cols` PEs.
#[derive(Clone, Debug)]
pub struct OuterProductArray {
    rows: usize,
    cols: usize,
    drain_rows_per_cycle: usize,
}

impl OuterProductArray {
    /// Creates an array.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or the drain rate exceeds the height.
    pub fn new(rows: usize, cols: usize, drain_rows_per_cycle: usize) -> Self {
        assert!(rows > 0 && cols > 0, "PE array must be non-empty");
        assert!(
            drain_rows_per_cycle > 0 && drain_rows_per_cycle <= rows,
            "drain rate must be in 1..=rows"
        );
        Self {
            rows,
            cols,
            drain_rows_per_cycle,
        }
    }

    /// Array height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Broadcast (compute) cycles for a K-deep tile: exactly `K` — one
    /// outer product per clock.
    pub fn compute_cycles(&self, k: usize) -> u64 {
        k as u64
    }

    /// Cycles to drain `m_t` output rows at `R` rows per cycle.
    pub fn drain_cycles(&self, m_t: usize) -> u64 {
        m_t.div_ceil(self.drain_rows_per_cycle) as u64
    }

    /// Runs one output tile: `a` is `(M_t, K)` with `M_t ≤ rows`, `b` is
    /// `(K, N_t)` with `N_t ≤ cols`, any `K`.
    ///
    /// # Panics
    ///
    /// Panics if the tile exceeds the array.
    pub fn run_tile(&self, a: &Tensor, b: &Tensor) -> (Tensor, u64) {
        let (mt, k) = a.dims2();
        let (kb, nt) = b.dims2();
        assert_eq!(k, kb, "inner dimension mismatch");
        assert!(mt <= self.rows, "M tile {mt} exceeds {} PE rows", self.rows);
        assert!(nt <= self.cols, "N tile {nt} exceeds {} PE cols", self.cols);

        let mut acc = Tensor::zeros(&[mt, nt]);
        for ki in 0..k {
            // Broadcast LHS column ki and RHS row ki; all-to-all MAC.
            let lhs_col: Vec<f32> = (0..mt).map(|r| a.data()[r * k + ki]).collect();
            let rhs_row: Vec<f32> = (0..nt).map(|c| b.data()[ki * nt + c]).collect();
            diva_tensor::outer_product_accumulate(acc.data_mut(), &lhs_col, &rhs_row);
        }
        (acc, self.compute_cycles(k) + self.drain_cycles(mt))
    }

    /// Runs an arbitrary `(M, K) × (K, N)` GEMM by tiling over M and N.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn gemm(&self, a: &Tensor, b: &Tensor) -> GemmRun {
        let (m, k) = a.dims2();
        let (kb, n) = b.dims2();
        assert_eq!(k, kb, "inner dimension mismatch");
        let mut out = Tensor::zeros(&[m, n]);
        let mut cycles: u64 = 0;
        for m0 in (0..m).step_by(self.rows) {
            let mt = (m - m0).min(self.rows);
            let mut a_tile = Tensor::zeros(&[mt, k]);
            for r in 0..mt {
                let src = (m0 + r) * k;
                a_tile.data_mut()[r * k..(r + 1) * k].copy_from_slice(&a.data()[src..src + k]);
            }
            for n0 in (0..n).step_by(self.cols) {
                let nt = (n - n0).min(self.cols);
                let mut b_tile = Tensor::zeros(&[k, nt]);
                for kk in 0..k {
                    for c in 0..nt {
                        b_tile.data_mut()[kk * nt + c] = b.data()[kk * n + n0 + c];
                    }
                }
                let (tile_out, tile_cycles) = self.run_tile(&a_tile, &b_tile);
                cycles += tile_cycles;
                for r in 0..mt {
                    for c in 0..nt {
                        out.data_mut()[(m0 + r) * n + n0 + c] = tile_out.data()[r * nt + c];
                    }
                }
            }
        }
        let macs = (m * k * n) as u64;
        GemmRun::new(out, cycles, macs, (self.rows * self.cols) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_tensor::{matmul, DivaRng};

    #[test]
    fn single_tile_matches_reference() {
        let mut rng = DivaRng::seed_from_u64(8);
        let arr = OuterProductArray::new(4, 4, 4);
        let a = Tensor::uniform(&[4, 9], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[9, 3], -1.0, 1.0, &mut rng);
        let (out, cycles) = arr.run_tile(&a, &b);
        assert!(out.max_abs_diff(&matmul(&a, &b)) < 1e-4);
        assert_eq!(cycles, 9 + 1); // K cycles + ceil(4/4) drain
    }

    #[test]
    fn tiled_gemm_matches_reference() {
        let mut rng = DivaRng::seed_from_u64(9);
        let arr = OuterProductArray::new(4, 4, 2);
        let a = Tensor::uniform(&[10, 6], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[6, 11], -1.0, 1.0, &mut rng);
        let run = arr.gemm(&a, &b);
        assert!(run.output.max_abs_diff(&matmul(&a, &b)) < 1e-4);
    }

    #[test]
    fn throughput_is_independent_of_k() {
        // The headline property: a full (rows × cols) tile sustains
        // rows·cols MACs per compute cycle for any K.
        let mut rng = DivaRng::seed_from_u64(10);
        let arr = OuterProductArray::new(8, 8, 8);
        for k in [1usize, 2, 16, 64] {
            let a = Tensor::uniform(&[8, k], -1.0, 1.0, &mut rng);
            let b = Tensor::uniform(&[k, 8], -1.0, 1.0, &mut rng);
            let run = arr.gemm(&a, &b);
            let compute_only_util = run.macs as f64 / ((k as f64 + 1.0) * 64.0);
            assert!(
                (compute_only_util - k as f64 / (k as f64 + 1.0)).abs() < 1e-9,
                "K={k}: utilization {compute_only_util}"
            );
        }
    }

    #[test]
    fn beats_ws_on_skinny_gemms() {
        let mut rng = DivaRng::seed_from_u64(11);
        let op = OuterProductArray::new(8, 8, 8);
        let ws = crate::WsArray::new(8, 8, 8);
        let a = Tensor::uniform(&[64, 2], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[2, 8], -1.0, 1.0, &mut rng);
        let op_run = op.gemm(&a, &b);
        let ws_run = ws.gemm(&a, &b);
        assert!(op_run.utilization > ws_run.utilization);
    }
}

//! Design-space exploration over DiVa's knobs: PE array geometry and the
//! drain rate R (which sets PPU width). Shows the trade-offs behind the
//! paper's Table II defaults.
//!
//! Run with: `cargo run --release --example accelerator_design_space`

use diva_core::{Accelerator, AcceleratorConfig, Dataflow, DesignPoint};
use diva_workload::{zoo, Algorithm};

fn main() {
    let model = zoo::resnet50();
    let batch = 64;
    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();
    let baseline = ws.run(&model, Algorithm::DpSgdReweighted, batch).seconds;

    println!(
        "ResNet-50, DP-SGD(R), batch {batch}: WS baseline {:.2} ms\n",
        1e3 * baseline
    );

    // --- Sweep drain rate R (PPU adder-tree instances) ---
    println!("DiVa drain rate R (rows/cycle) sweep, 128x128 PEs:");
    println!("  {:<4} {:>10} {:>10}", "R", "step (ms)", "speedup");
    for r in [1u64, 2, 4, 8, 16, 32] {
        let mut cfg = AcceleratorConfig::tpu_v3_like(Dataflow::OuterProduct);
        cfg.drain_rows_per_cycle = r;
        let accel = Accelerator::from_config(format!("DiVa R={r}"), cfg).expect("valid");
        let t = accel.run(&model, Algorithm::DpSgdReweighted, batch).seconds;
        println!("  {r:<4} {:>10.2} {:>9.2}x", 1e3 * t, baseline / t);
    }
    println!("  (diminishing returns past the paper's default R = 8)");

    // --- Sweep PE array aspect ratio at constant MAC count ---
    println!("\nPE array aspect ratio sweep (16,384 MACs total):");
    println!("  {:<10} {:>10} {:>10}", "geometry", "step (ms)", "speedup");
    for (rows, cols) in [(64u64, 256u64), (128, 128), (256, 64), (512, 32)] {
        let mut cfg = AcceleratorConfig::tpu_v3_like(Dataflow::OuterProduct);
        cfg.pe = diva_core::AcceleratorConfig::tpu_v3_like(Dataflow::OuterProduct).pe;
        cfg.pe.rows = rows;
        cfg.pe.cols = cols;
        cfg.drain_rows_per_cycle = 8.min(rows);
        let accel = Accelerator::from_config(format!("DiVa {rows}x{cols}"), cfg).expect("valid");
        let t = accel.run(&model, Algorithm::DpSgdReweighted, batch).seconds;
        println!(
            "  {:<10} {:>10.2} {:>9.2}x",
            format!("{rows}x{cols}"),
            1e3 * t,
            baseline / t
        );
    }

    // --- Scale the array size ---
    println!("\nPE array size sweep (square arrays):");
    println!(
        "  {:<10} {:>12} {:>10} {:>10}",
        "geometry", "peak TFLOPS", "step (ms)", "speedup"
    );
    for side in [64u64, 128, 256] {
        let mut cfg = AcceleratorConfig::tpu_v3_like(Dataflow::OuterProduct);
        cfg.pe.rows = side;
        cfg.pe.cols = side;
        let accel = Accelerator::from_config(format!("DiVa {side}"), cfg).expect("valid");
        let t = accel.run(&model, Algorithm::DpSgdReweighted, batch).seconds;
        println!(
            "  {:<10} {:>12.1} {:>10.2} {:>9.2}x",
            format!("{side}x{side}"),
            accel.config().peak_tflops(),
            1e3 * t,
            baseline / t
        );
    }
    println!(
        "\nBigger arrays help less than their peak suggests: per-example GEMMs don't\n\
         grow with the array — exactly the utilization wall the paper describes."
    );
}

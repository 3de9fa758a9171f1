//! Quickstart: why DP-SGD breaks systolic arrays, in one GEMM.
//!
//! Simulates a per-example weight-gradient GEMM (the small-K shape of the
//! paper's Figure 6) on the weight-stationary baseline and on DiVa's
//! outer-product engine — first with the fast analytic models at TPUv3
//! scale, then with the register-level functional arrays at a small scale
//! to show both agree.
//!
//! Run with: `cargo run --release --example quickstart`

use diva_core::{Accelerator, DesignPoint, GemmShape};
use diva_pearray::{OuterProductArray, WsArray};
use diva_tensor::{matmul, DivaRng, Tensor};

fn main() {
    // A late-layer ResNet per-example weight gradient: M = Cin*R*S = 4608,
    // K = P*Q = 16 (a 4x4 feature map), N = Cout = 512 — K is tiny and
    // batch-independent, the shape that starves systolic arrays.
    let shape = GemmShape::new(4608, 16, 512);
    let batch = 32;

    println!("Per-example weight-gradient GEMM {shape}, batch of {batch} independent GEMMs\n");

    for dp in [DesignPoint::WsBaseline, DesignPoint::Diva] {
        let accel = Accelerator::from_design_point(dp).unwrap();
        let t = accel.simulator().gemm_timing(shape, batch, false);
        println!(
            "{:<12}  {:>12} cycles   {:>5.1}% FLOPS utilization   {:>6.2} effective TFLOPS",
            dp.label(),
            t.total_cycles,
            100.0 * t.utilization,
            t.effective_tflops(accel.config().freq_hz),
        );
    }

    // The same story on 8x8 functional arrays, executed register by
    // register and checked against a reference matmul.
    println!("\nFunctional (register-level) check on an 8x8 array, GEMM (64, 2, 8):");
    let mut rng = DivaRng::seed_from_u64(42);
    let a = Tensor::uniform(&[64, 2], -1.0, 1.0, &mut rng);
    let b = Tensor::uniform(&[2, 8], -1.0, 1.0, &mut rng);
    let reference = matmul(&a, &b);

    let ws = WsArray::new(8, 8, 8).gemm(&a, &b);
    let op = OuterProductArray::new(8, 8, 8).gemm(&a, &b);
    assert!(ws.output.max_abs_diff(&reference) < 1e-4);
    assert!(op.output.max_abs_diff(&reference) < 1e-4);
    println!(
        "  WS systolic : {:>5} cycles, utilization {:>5.1}%",
        ws.cycles,
        100.0 * ws.utilization
    );
    println!(
        "  outer-prod  : {:>5} cycles, utilization {:>5.1}%",
        op.cycles,
        100.0 * op.utilization
    );
    println!("\nBoth engines computed the exact same product; only the cycles differ.");
}

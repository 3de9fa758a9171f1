//! Workload characterization for one model (the paper's Section III in
//! miniature): memory breakdown, max batch, per-phase latency on the WS
//! baseline, and what DiVa does to it.
//!
//! Run with: `cargo run --release --example characterize_workload -- [model]`
//! where `[model]` is one of: vgg16, resnet50, resnet152, squeezenet,
//! mobilenet, bert-base, bert-large, lstm-small, lstm-large.

use diva_core::{Accelerator, DesignPoint, Phase};
use diva_workload::{zoo, Algorithm, ModelSpec};

const HBM: u64 = 16 * (1 << 30);

fn pick_model(arg: Option<String>) -> ModelSpec {
    match arg.as_deref() {
        None | Some("resnet50") => zoo::resnet50(),
        Some("vgg16") => zoo::vgg16(),
        Some("resnet152") => zoo::resnet152(),
        Some("squeezenet") => zoo::squeezenet(),
        Some("mobilenet") => zoo::mobilenet(),
        Some("bert-base") => zoo::bert_base(),
        Some("bert-large") => zoo::bert_large(),
        Some("lstm-small") => zoo::lstm_small(),
        Some("lstm-large") => zoo::lstm_large(),
        Some(other) => {
            eprintln!("unknown model '{other}', defaulting to resnet50");
            zoo::resnet50()
        }
    }
}

fn main() {
    let model = pick_model(std::env::args().nth(1));
    println!(
        "{}: {} layers, {:.1} M parameters\n",
        model.name,
        model.layers.len(),
        model.params() as f64 / 1e6
    );

    // --- Memory (Section III-A) ---
    println!("max power-of-two batch under 16 GB:");
    for alg in Algorithm::ALL {
        println!(
            "  {:<10} {:>6}",
            alg.label(),
            model.max_batch_pow2(alg, HBM)
        );
    }
    let batch = model.max_batch_pow2(Algorithm::DpSgd, HBM).max(1);
    println!("\nmemory at batch {batch} (GiB):");
    for alg in Algorithm::ALL {
        let p = model.memory_profile(alg, batch);
        println!(
            "  {:<10} weights {:>5.2}  acts {:>5.2}  per-batch {:>5.2}  per-example {:>6.2}  total {:>6.2}",
            alg.label(),
            gib(p.weight_bytes),
            gib(p.activation_bytes),
            gib(p.per_batch_grad_bytes),
            gib(p.per_example_grad_bytes),
            gib(p.total()),
        );
    }

    // --- Latency (Section III-B) ---
    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();
    let diva = Accelerator::from_design_point(DesignPoint::Diva).unwrap();
    println!("\nper-phase cycles at batch {batch} (millions):");
    println!(
        "  {:<34} {:>10} {:>10} {:>10} {:>10}",
        "phase", "WS SGD", "WS DP(R)", "DiVa DP(R)", "WS/DiVa"
    );
    let ws_sgd = ws.run(&model, Algorithm::Sgd, batch);
    let ws_dpr = ws.run(&model, Algorithm::DpSgdReweighted, batch);
    let diva_dpr = diva.run(&model, Algorithm::DpSgdReweighted, batch);
    for phase in Phase::ALL {
        let (a, b, c) = (
            ws_sgd.phase_cycles(phase),
            ws_dpr.phase_cycles(phase),
            diva_dpr.phase_cycles(phase),
        );
        if a + b + c == 0 {
            continue;
        }
        let ratio = if c > 0 {
            format!("{:>9.2}x", b as f64 / c as f64)
        } else if b > 0 {
            "    fused".to_string()
        } else {
            "        -".to_string()
        };
        println!(
            "  {:<34} {:>10.1} {:>10.1} {:>10.1} {ratio}",
            phase.label(),
            a as f64 / 1e6,
            b as f64 / 1e6,
            c as f64 / 1e6,
        );
    }
    println!(
        "\nend-to-end: WS SGD {:.2} ms | WS DP-SGD(R) {:.2} ms | DiVa DP-SGD(R) {:.2} ms",
        1e3 * ws_sgd.seconds,
        1e3 * ws_dpr.seconds,
        1e3 * diva_dpr.seconds,
    );
    println!(
        "DP tax on WS: {:.1}x  |  DiVa speedup: {:.1}x  |  DiVa DP vs WS SGD: {:.2}x",
        ws_dpr.seconds / ws_sgd.seconds,
        ws_dpr.seconds / diva_dpr.seconds,
        ws_sgd.seconds / diva_dpr.seconds,
    );
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

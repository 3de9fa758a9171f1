//! Privacy-budget exploration with the accounting engine: how ε grows
//! with training steps, how much tighter PLD accounting is than RDP, and
//! how to calibrate σ for a target budget — the knobs a DiVa user would
//! tune before training.
//!
//! Run with: `cargo run --release --example privacy_budget`

use diva_dp::{
    batch_epsilons, calibrate_noise, classic_gaussian_sigma, gaussian_sigma, AccountantKind,
    DpEvent,
};

fn main() {
    let delta = 1e-5;
    let q = 256.0 / 60_000.0; // MNIST-scale sampling rate

    // One event tree, many step counts, both accountants — the batch API
    // reuses composition prefixes instead of re-accounting per row.
    let step = DpEvent::poisson_sampled(q, DpEvent::gaussian(1.1));
    let counts = [100u64, 1_000, 5_000, 15_000, 50_000];
    let rdp = batch_epsilons(AccountantKind::Rdp, &step, &counts, delta).expect("valid event");
    let pld = batch_epsilons(AccountantKind::Pld, &step, &counts, delta).expect("valid event");

    println!("epsilon(steps) at q = {q:.4}, sigma = 1.1, delta = {delta:e}:\n");
    println!(
        "  {:<8} {:>10} {:>10} {:>9}",
        "steps", "rdp", "pld", "saved"
    );
    for (i, steps) in counts.iter().enumerate() {
        println!(
            "  {steps:<8} {:>10.3} {:>10.3} {:>8.1}%",
            rdp[i],
            pld[i],
            100.0 * (1.0 - pld[i] / rdp[i])
        );
    }

    let steps = 60 * 234;
    println!("\ncalibrating sigma for a 60-epoch run ({steps} steps):");
    println!(
        "  {:<12} {:>10} {:>10}",
        "target eps", "rdp sigma", "pld sigma"
    );
    for target in [1.0, 2.0, 4.0, 8.0] {
        let s_rdp = calibrate_noise(AccountantKind::Rdp, target, delta, q, steps)
            .expect("target reachable");
        let s_pld = calibrate_noise(AccountantKind::Pld, target, delta, q, steps)
            .expect("target reachable");
        println!("  {target:<12} {s_rdp:>10.3} {s_pld:>10.3}");
    }

    // Single-shot Gaussian release: analytical calibration (Balle & Wang
    // 2018) vs the classic sufficient condition.
    println!("\none-shot Gaussian mechanism, sigma for (eps, {delta:e}):");
    println!(
        "  {:<12} {:>10} {:>10}",
        "target eps", "classic", "analytic"
    );
    for target in [0.25, 0.5, 1.0] {
        let classic = classic_gaussian_sigma(target, delta).expect("valid target");
        let analytic = gaussian_sigma(target, delta).expect("valid target");
        println!("  {target:<12} {classic:>10.3} {analytic:>10.3}");
    }

    // A deliberately impossible target surfaces as a typed error, not a
    // panic.
    let err = calibrate_noise(AccountantKind::Rdp, 1e-6, 1e-12, 0.5, 1_000_000)
        .expect_err("absurd target");
    println!("\nimpossible target: {err}");

    println!(
        "\nTighter budgets need more noise; DP-SGD's compute cost is what DiVa attacks,\n\
         so cheaper steps let you buy accuracy back with longer training at the same eps."
    );
}

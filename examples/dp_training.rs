//! End-to-end differentially private training with the functional stack:
//! trains a small MLP classifier on synthetic Gaussian-cluster data with
//! DP-SGD(R), tracks the privacy budget with the accounting engine (the
//! tight PLD bound next to the conservative RDP one), and verifies the
//! DP-SGD ≡ DP-SGD(R) identity the paper exploits.
//!
//! Every epoch runs the same fixed, disjoint batches, so no example gains
//! amplification by sampling, and ε is accounted for what the loop runs:
//! with a fixed batch size, neighbouring datasets differ by replacing one
//! example, which moves one step's clipped sum by up to `2C`. Each epoch
//! therefore releases every example once through a Gaussian mechanism of
//! noise multiplier `σ / 2`.
//!
//! Run with: `cargo run --release --example dp_training`

use diva_dp::{
    event_epsilon, make_blobs, AccountantKind, DpEvent, DpSgdConfig, DpTrainer, TrainingAlgorithm,
};
use diva_nn::{Layer, Network};
use diva_tensor::{argmax_rows, DivaRng};

fn main() {
    let mut rng = DivaRng::seed_from_u64(2022);
    let train = make_blobs(2048, 16, 4, 0.6, &mut rng);
    let test = make_blobs(512, 16, 4, 0.6, &mut rng);

    let mut net = Network::new(vec![
        Layer::dense(16, 64, true, &mut rng),
        Layer::relu(),
        Layer::dense(64, 4, true, &mut rng),
    ]);

    let batch = 128usize;
    let epochs = 10usize;
    let config = DpSgdConfig {
        algorithm: TrainingAlgorithm::DpSgdReweighted,
        clip_norm: 1.0,
        noise_multiplier: 1.1,
        learning_rate: 0.5,
    };
    let trainer = DpTrainer::builder().config(config).build();
    let delta = 1e-5;

    println!(
        "Training a {}-parameter MLP with {} (C = {}, sigma = {})\n",
        net.param_count(),
        config.algorithm,
        config.clip_norm,
        config.noise_multiplier
    );

    let steps_per_epoch = train.len() / batch;
    for epoch in 1..=epochs {
        let mut loss_sum = 0.0;
        let mut clipped = 0usize;
        for s in 0..steps_per_epoch {
            let (x, labels) = train.batch(s * batch, batch);
            let report = trainer.step(&mut net, &x, &labels, &mut rng);
            loss_sum += report.mean_loss;
            clipped += report.clip.as_ref().map_or(0, |c| c.clipped_count);
        }
        let event = DpEvent::self_composed(
            DpEvent::gaussian(config.noise_multiplier / 2.0),
            epoch as u64,
        );
        let epsilon = |kind| event_epsilon(kind, &event, delta).expect("valid event");
        println!(
            "epoch {epoch:>2}: loss {:.3}  clipped {:>4}/{}  eps = {:.2} (rdp {:.2}, delta = {delta:e})",
            loss_sum / steps_per_epoch as f64,
            clipped,
            steps_per_epoch * batch,
            epsilon(AccountantKind::Pld),
            epsilon(AccountantKind::Rdp)
        );
    }
    println!(
        "(eps for {steps_per_epoch} fixed, disjoint batches of {batch} per epoch under \
         replace-one adjacency: one Gaussian release per example per epoch at sigma / 2, \
         no amplification by sampling)"
    );

    // Evaluate.
    let (x, labels) = test.batch(0, test.len());
    let (logits, _) = net.forward(&x);
    let preds = argmax_rows(&logits);
    let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
    println!(
        "\ntest accuracy: {:.1}% ({correct}/{})",
        100.0 * correct as f64 / labels.len() as f64,
        labels.len()
    );

    // The identity behind DP-SGD(R): same noise draw, same update.
    let mut rng_a = DivaRng::seed_from_u64(7);
    let mut rng_b = DivaRng::seed_from_u64(7);
    let (x, labels) = train.batch(0, batch);
    let mut net_a = net.clone();
    let mut net_b = net.clone();
    DpTrainer::new(DpSgdConfig {
        algorithm: TrainingAlgorithm::DpSgd,
        ..config
    })
    .step(&mut net_a, &x, &labels, &mut rng_a);
    DpTrainer::new(DpSgdConfig {
        algorithm: TrainingAlgorithm::DpSgdReweighted,
        ..config
    })
    .step(&mut net_b, &x, &labels, &mut rng_b);
    let max_diff = net_a
        .layers()
        .iter()
        .zip(net_b.layers())
        .flat_map(|(a, b)| {
            a.params()
                .into_iter()
                .zip(b.params())
                .map(|(pa, pb)| pa.max_abs_diff(pb))
        })
        .fold(0.0f32, f32::max);
    println!(
        "DP-SGD vs DP-SGD(R) update difference (same noise): {max_diff:.2e} — identical \
         up to float reassociation, the property the paper's Algorithm 1 relies on"
    );
}

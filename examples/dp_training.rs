//! End-to-end differentially private training with the functional stack:
//! trains a small MLP classifier on synthetic Gaussian-cluster data with
//! DP-SGD(R), tracks the privacy budget with the accounting engine (the
//! tight PLD bound next to the conservative RDP one), and verifies the
//! DP-SGD ≡ DP-SGD(R) identity the paper exploits.
//!
//! Run with: `cargo run --release --example dp_training`

use diva_dp::{make_blobs, DpSgdConfig, DpTrainer, TrainingAlgorithm};
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
    let sampling_rate = batch as f64 / train.len() as f64;

    println!(
        "Training a {}-parameter MLP with {} (C = {}, sigma = {})\n",
        net.param_count(),
        config.algorithm,
        config.clip_norm,
        config.noise_multiplier
    );

    let steps_per_epoch = train.len() / batch;
    let mut steps = 0u64;
    for epoch in 1..=epochs {
        let mut loss_sum = 0.0;
        let mut clipped = 0usize;
        for s in 0..steps_per_epoch {
            let (x, labels) = train.batch(s * batch, batch);
            let report = trainer.step(&mut net, &x, &labels, &mut rng);
            loss_sum += report.mean_loss;
            clipped += report.clip.as_ref().map_or(0, |c| c.clipped_count);
            steps += 1;
        }
        let spent = trainer
            .privacy_spent(sampling_rate, steps, 1e-5)
            .expect("private config");
        println!(
            "epoch {epoch:>2}: loss {:.3}  clipped {:>4}/{}  eps = {:.2} (rdp {:.2}, delta = 1e-5)",
            loss_sum / steps_per_epoch as f64,
            clipped,
            steps_per_epoch * batch,
            spent.epsilon,
            spent.epsilon_rdp
        );
    }

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

//! End-to-end functional DP training across the full layer set: a
//! GroupNorm CNN on image data and an Embedding+LSTM classifier on token
//! sequences, both trained with DP-SGD(R) and checked for real learning —
//! plus Poisson-sampled training wired to the RDP accountant, i.e. the
//! complete DP-SGD system as deployed.

use diva_dp::{
    event_epsilon, make_image_blobs, poisson_sample, AccountantKind, DpEvent, DpSgdConfig,
    DpTrainer, TrainingAlgorithm,
};
use diva_nn::{Layer, Network};
use diva_tensor::{argmax_rows, DivaRng, Tensor};

fn accuracy(net: &Network, x: &Tensor, labels: &[usize]) -> f64 {
    let (logits, _) = net.forward(x);
    let preds = argmax_rows(&logits);
    preds.iter().zip(labels).filter(|(p, l)| p == l).count() as f64 / labels.len() as f64
}

#[test]
fn groupnorm_cnn_learns_under_dp() {
    let mut rng = DivaRng::seed_from_u64(77);
    let train = make_image_blobs(512, 8, 2, 0.4, &mut rng);
    let test = make_image_blobs(128, 8, 2, 0.4, &mut rng);

    let mut net = Network::new(vec![
        Layer::conv2d(1, 8, 3, 1, 1, 8, 8, &mut rng),
        Layer::group_norm(8, 4),
        Layer::relu(),
        Layer::max_pool2d(2),
        Layer::flatten(),
        Layer::dense(8 * 4 * 4, 2, true, &mut rng),
    ]);
    let trainer = DpTrainer::new(DpSgdConfig {
        algorithm: TrainingAlgorithm::DpSgdReweighted,
        clip_norm: 1.0,
        noise_multiplier: 0.4,
        learning_rate: 0.4,
    });
    let batch = 64;
    for epoch in 0..6 {
        for s in 0..train.len() / batch {
            let (x, labels) = train.batch(s * batch, batch);
            trainer.step(&mut net, &x, &labels, &mut rng);
        }
        let _ = epoch;
    }
    let (x, labels) = test.batch(0, test.len());
    let acc = accuracy(&net, &x, &labels);
    assert!(acc > 0.9, "DP CNN accuracy only {acc:.2}");
}

#[test]
fn embedding_lstm_classifier_learns_under_dp() {
    let mut rng = DivaRng::seed_from_u64(88);
    // Token sequences where the dominant token identifies the class.
    let vocab = 12usize;
    let seq = 8usize;
    let make = |n: usize, rng: &mut DivaRng| -> (Tensor, Vec<usize>) {
        let mut data = Vec::with_capacity(n * seq);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let marker = if class == 0 { 2.0 } else { 9.0 };
            for t in 0..seq {
                // Mostly the class marker, some noise tokens.
                let tok = if t % 3 == 0 {
                    rng.index(vocab) as f32
                } else {
                    marker
                };
                data.push(tok);
            }
            labels.push(class);
        }
        (Tensor::from_vec(data, &[n, seq]), labels)
    };

    let hidden = 16;
    let mut net = Network::new(vec![
        Layer::embedding(vocab, 8, &mut rng),
        Layer::lstm(8, hidden, &mut rng),
        Layer::flatten(),
        Layer::dense(seq * hidden, 2, true, &mut rng),
    ]);
    let trainer = DpTrainer::new(DpSgdConfig {
        algorithm: TrainingAlgorithm::DpSgdReweighted,
        clip_norm: 1.0,
        noise_multiplier: 0.3,
        learning_rate: 0.5,
    });
    for _ in 0..40 {
        let (x, labels) = make(32, &mut rng);
        trainer.step(&mut net, &x, &labels, &mut rng);
    }
    let (x, labels) = make(128, &mut rng);
    let acc = accuracy(&net, &x, &labels);
    assert!(acc > 0.85, "DP LSTM accuracy only {acc:.2}");
}

#[test]
fn poisson_sampled_training_with_accountant() {
    let mut rng = DivaRng::seed_from_u64(99);
    let train = diva_dp::make_blobs(1000, 8, 2, 0.4, &mut rng);
    let mut net = Network::new(vec![
        Layer::dense(8, 16, true, &mut rng),
        Layer::relu(),
        Layer::dense(16, 2, true, &mut rng),
    ]);
    let q = 0.064; // expected batch 64
    let sigma = 0.8;
    let trainer = DpTrainer::new(DpSgdConfig {
        algorithm: TrainingAlgorithm::DpSgdReweighted,
        clip_norm: 1.0,
        noise_multiplier: sigma,
        learning_rate: 0.5,
    });
    let mut steps = 0u64;
    let mut last_loss = f64::INFINITY;
    for _ in 0..100 {
        if let Some((x, labels)) = poisson_sample(&train, q, &mut rng) {
            last_loss = trainer.step(&mut net, &x, &labels, &mut rng).mean_loss;
        }
        steps += 1; // privacy is charged whether or not the draw was empty
    }
    let eps = event_epsilon(AccountantKind::Rdp, &DpEvent::dp_sgd(q, sigma, steps), 1e-5).unwrap();
    assert!(eps > 0.0 && eps < 20.0, "epsilon {eps} out of range");
    assert!(
        last_loss < 0.5,
        "training did not progress: loss {last_loss}"
    );

    let (x, labels) = train.batch(0, 256);
    let acc = accuracy(&net, &x, &labels);
    assert!(acc > 0.9, "accuracy only {acc:.2} at eps {eps:.2}");
}

#[test]
fn microbatch_accumulation_trains_with_small_memory() {
    // Simulate DP training at effective batch 64 using microbatches of 8 —
    // the practitioner workaround for the paper's Section III-A memory wall.
    let mut rng = DivaRng::seed_from_u64(111);
    let train = diva_dp::make_blobs(512, 6, 2, 0.4, &mut rng);
    let mut net = Network::new(vec![
        Layer::dense(6, 12, true, &mut rng),
        Layer::relu(),
        Layer::dense(12, 2, true, &mut rng),
    ]);
    let trainer = DpTrainer::new(DpSgdConfig {
        algorithm: TrainingAlgorithm::DpSgd,
        clip_norm: 1.0,
        noise_multiplier: 0.5,
        learning_rate: 0.5,
    });
    let mut last_loss = f64::INFINITY;
    for step in 0..24 {
        let start = (step * 64) % 448;
        let micro: Vec<(Tensor, Vec<usize>)> =
            (0..8).map(|i| train.batch(start + i * 8, 8)).collect();
        last_loss = trainer
            .step_accumulated(&mut net, &micro, &mut rng)
            .mean_loss;
    }
    assert!(
        last_loss < 0.45,
        "accumulated training stalled: {last_loss}"
    );
}

//! The recycled buffer pool in steady state: once a training loop is warm,
//! every large buffer a step asks for was returned by the step before, so
//! the pool neither allocates nor evicts, and what it keeps idle for
//! DP-SGD is one block of per-example rows, not a batch of them. This is
//! the only test in its binary: the pool's counters are process-global,
//! and no other test may move them while it measures.

use diva_dp::{DpTrainer, TrainingAlgorithm};
use diva_nn::{Layer, Network};
use diva_tensor::{buffer_stats, Backend, DivaRng, Tensor};

const BATCH: usize = 32;
const WARMUP_STEPS: usize = 3;
const MEASURED_STEPS: usize = 5;
/// Examples per block of DP-SGD's clipped sum at two threads.
const BLOCK_ROWS: u64 = 4;
/// The rest of a DP-SGD step's large buffers, rows aside: `mnist_cnn`'s
/// activations, kept inputs and data gradients at B = 32, which leave
/// 4.8 MiB idle on two threads, with room.
const ACTIVATION_BYTES: u64 = 8 << 20;

/// The repository benchmark's MNIST CNN: conv(1→16) · relu · maxpool2 ·
/// conv(16→32) · relu · maxpool2 · flatten · dense(1568→256) · relu ·
/// dense(256→10). A network row (one example's gradient) is 1.6 MB, and
/// a batch of them 52 MB.
fn mnist_cnn(rng: &mut DivaRng) -> (Network, Tensor) {
    let net = Network::new(vec![
        Layer::conv2d(1, 16, 3, 1, 1, 28, 28, rng),
        Layer::relu(),
        Layer::max_pool2d(2),
        Layer::conv2d(16, 32, 3, 1, 1, 14, 14, rng),
        Layer::relu(),
        Layer::max_pool2d(2),
        Layer::flatten(),
        Layer::dense(32 * 7 * 7, 256, true, rng),
        Layer::relu(),
        Layer::dense(256, 10, true, rng),
    ]);
    (net, Tensor::uniform(&[BATCH, 1, 28, 28], 0.0, 1.0, rng))
}

/// The `compute_backend` bench's DP step MLP: 1.1 MB network rows (two
/// 16.8 MB arenas as a materialized batch) among many 64 KiB activations.
fn step_mlp(rng: &mut DivaRng) -> (Network, Tensor) {
    let net = Network::new(vec![
        Layer::dense(256, 512, true, rng),
        Layer::relu(),
        Layer::dense(512, 256, true, rng),
        Layer::relu(),
        Layer::dense(256, 10, true, rng),
    ]);
    (net, Tensor::uniform(&[BATCH, 256], -1.0, 1.0, rng))
}

#[test]
fn steady_state_steps_neither_allocate_nor_evict() {
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 10).collect();
    let mut rng = DivaRng::seed_from_u64(15);
    let models = [
        ("mnist_cnn", mnist_cnn(&mut rng)),
        ("step_mlp", step_mlp(&mut rng)),
    ];
    for (model, (net0, x)) in models {
        for algorithm in [
            TrainingAlgorithm::DpSgd,
            TrainingAlgorithm::DpSgdReweighted,
            TrainingAlgorithm::Sgd,
        ] {
            let trainer = DpTrainer::builder()
                .algorithm(algorithm)
                .clip_norm(1.0)
                .noise_multiplier(1.1)
                .learning_rate(0.05)
                .backend(Backend::with_threads(2))
                .build();
            let mut net = net0.clone();
            for _ in 0..WARMUP_STEPS {
                trainer.step(&mut net, &x, &labels, &mut rng);
            }
            let before = buffer_stats();
            for _ in 0..MEASURED_STEPS {
                trainer.step(&mut net, &x, &labels, &mut rng);
            }
            let after = buffer_stats();
            let what = format!("{model} {algorithm:?}: {before:?} -> {after:?}");
            assert_eq!(after.allocated, before.allocated, "pool misses, {what}");
            assert_eq!(after.evicted, before.evicted, "evictions, {what}");
            assert!(after.reused > before.reused, "no reuse, {what}");
            if model == "mnist_cnn" && algorithm == TrainingAlgorithm::DpSgd {
                // One block of network rows, the clipped sum's accumulator
                // and the reduced gradient (a row each), and the rest.
                let row = (net.param_count() * size_of::<f32>()) as u64;
                let bound = BLOCK_ROWS * row + 2 * row + ACTIVATION_BYTES;
                assert!(after.idle_bytes <= bound, "idle bytes over {bound}, {what}");
            }
        }
    }
}

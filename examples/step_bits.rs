//! Seeded parameter-bit hashes of a few training steps, per algorithm and
//! pool width.
//!
//! Trains the benchmark CNN (`mnist_cnn` of the `dpbench` package, the same
//! initialization, data and noise streams at seed 1) for six steps with
//! DP-SGD, DP-SGD(R) and plain SGD at `Backend::with_threads(1|2|3)`, then
//! hashes every parameter's `f32` bits in layer order with 64-bit FNV-1a.
//! A change that claims to keep the arithmetic must print the hashes its
//! parent prints, and within one build every width prints the same hash
//! (`serial_and_parallel_steps_are_bitwise_equal` in `diva-dp` asserts
//! that on the same geometry).
//!
//! Run with: `cargo run --release --example step_bits`

use diva_dp::{make_image_blobs, DpSgdConfig, DpTrainer, TrainingAlgorithm};
use diva_nn::{Layer, Network};
use diva_tensor::{Backend, DivaRng};

const SEED: u64 = 1;
const SIDE: usize = 28;
const CLASSES: usize = 10;
const BATCH: usize = 32;
const BATCHES: usize = 16;
const STEPS: usize = 6;
const WIDTHS: [usize; 3] = [1, 2, 3];

/// One independent generator per input, as `dpbench` derives them.
fn stream(seed: u64, tag: u64) -> DivaRng {
    DivaRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// conv(1→16) · relu · maxpool2 · conv(16→32) · relu · maxpool2 · flatten
/// · dense(1568→256) · relu · dense(256→10).
fn mnist_cnn(seed: u64) -> Network {
    let mut rng = stream(seed, 3);
    Network::new(vec![
        Layer::conv2d(1, 16, 3, 1, 1, SIDE, SIDE, &mut rng),
        Layer::relu(),
        Layer::max_pool2d(2),
        Layer::conv2d(16, 32, 3, 1, 1, SIDE / 2, SIDE / 2, &mut rng),
        Layer::relu(),
        Layer::max_pool2d(2),
        Layer::flatten(),
        Layer::dense(32 * (SIDE / 4) * (SIDE / 4), 256, true, &mut rng),
        Layer::relu(),
        Layer::dense(256, CLASSES, true, &mut rng),
    ])
}

/// 64-bit FNV-1a with one `f32`'s bits per round, over every parameter in
/// layer order.
fn param_hash(net: &Network) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for layer in net.layers() {
        for p in layer.params() {
            for v in p.data() {
                h ^= u64::from(v.to_bits());
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn main() {
    let data = make_image_blobs(BATCHES * BATCH, SIDE, CLASSES, 0.8, &mut stream(SEED, 1));
    for algorithm in [
        TrainingAlgorithm::DpSgd,
        TrainingAlgorithm::DpSgdReweighted,
        TrainingAlgorithm::Sgd,
    ] {
        for threads in WIDTHS {
            let trainer = DpTrainer::builder()
                .config(DpSgdConfig {
                    algorithm,
                    clip_norm: 1.0,
                    noise_multiplier: 1.1,
                    learning_rate: 0.05,
                })
                .backend(Backend::with_threads(threads))
                .build();
            let mut net = mnist_cnn(SEED);
            let mut noise = stream(SEED, 4);
            for s in 0..STEPS {
                let (x, labels) = data.batch((s % BATCHES) * BATCH, BATCH);
                trainer.step(&mut net, &x, &labels, &mut noise);
            }
            let h = param_hash(&net);
            println!("{:<10} threads={threads}  {h:016x}", algorithm.label());
        }
    }
}

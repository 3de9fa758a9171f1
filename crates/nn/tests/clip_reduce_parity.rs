//! Parity contract for the fused/parallel clip-reduce pipeline: the
//! parallel `weighted_reduce` and the fused `backward_reweighted` of
//! DP-SGD(R) must agree with straightforward serial accumulation across
//! the batch sizes DP-SGD cares about (1, 2, 33) and across worker counts,
//! and DP-SGD's streamed `Network::clipped_sum` must equal the
//! materialized arena path bit for bit.

use diva_nn::{GradMode, Layer, LayerCache, Network, NetworkGrads, ParamGrads};
use diva_tensor::{softmax_cross_entropy, Backend, Buffer, DivaRng, Tensor};

fn cnn(rng: &mut DivaRng) -> Network {
    Network::new(vec![
        Layer::conv2d(1, 4, 3, 1, 1, 6, 6, rng),
        Layer::relu(),
        Layer::flatten(),
        Layer::dense(4 * 36, 8, true, rng),
        Layer::relu(),
        Layer::dense(8, 3, true, rng),
    ])
}

fn forward_loss(net: &Network, b: usize, rng: &mut DivaRng) -> (Vec<diva_nn::LayerCache>, Tensor) {
    let x = Tensor::uniform(&[b, 1, 6, 6], -1.0, 1.0, rng);
    let labels: Vec<usize> = (0..b).map(|i| i % 3).collect();
    let (y, caches) = net.forward(&x);
    let loss = softmax_cross_entropy(&y, &labels);
    (caches, loss.grad_logits)
}

/// Straightforward serial weighted reduction over the arena's examples,
/// copied out as tensors — the oracle. Also checks the norms the arena
/// took while writing each row against the copied-out tensors.
fn reduce_serial(grads: &NetworkGrads, weights: &[f64]) -> Vec<Tensor> {
    let mut out = Vec::new();
    for g in &grads.layers {
        if let ParamGrads::PerExample(arena) = g {
            let per_ex = arena.examples();
            for (ex, &hot) in per_ex.iter().zip(arena.sq_norms()) {
                let copied: f64 = ex.iter().map(Tensor::squared_norm).sum();
                assert_eq!(hot, copied, "norm taken while writing differs");
            }
            for pi in 0..per_ex[0].len() {
                let mut acc = Tensor::zeros(per_ex[0][pi].shape().dims());
                for (ex, &w) in per_ex.iter().zip(weights) {
                    diva_tensor::add_scaled(&mut acc, &ex[pi], w as f32);
                }
                out.push(acc);
            }
        }
    }
    out
}

/// The column-split `K = B` reduce over the arena is bit-identical to
/// serial accumulation for every worker count, and so are the norms the
/// arena takes while writing each row.
#[test]
fn weighted_reduce_is_bitwise_stable_across_thread_counts() {
    let mut rng = DivaRng::seed_from_u64(21);
    let net = cnn(&mut rng);
    for &b in &[1usize, 2, 33] {
        let (caches, grad_loss) = forward_loss(&net, b, &mut rng);
        let per_ex = net.backward(&caches, &grad_loss, GradMode::PerExample);
        let weights: Vec<f64> = (0..b).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let oracle = reduce_serial(&per_ex, &weights);
        let norms = per_ex.per_example_sq_norms();
        for backend in [
            Backend::serial(),
            Backend::with_threads(2),
            Backend::with_threads(5),
        ] {
            let rebuilt =
                backend.install(|| net.backward(&caches, &grad_loss, GradMode::PerExample));
            assert_eq!(
                rebuilt.per_example_sq_norms(),
                norms,
                "b={b} {}",
                backend.label()
            );
            let reduced = backend.install(|| per_ex.weighted_reduce(&weights));
            let flat = reduced.flatten_per_batch();
            let oracle_flat: Vec<f32> = oracle.iter().flat_map(|t| t.data().to_vec()).collect();
            assert_eq!(flat.len(), oracle_flat.len(), "b={b} {}", backend.label());
            for (i, (x, y)) in flat.iter().zip(&oracle_flat).enumerate() {
                assert_eq!(x, y, "b={b} {} diverged at {i}", backend.label());
            }
        }
    }
}

/// The fused DP-SGD(R) path (reweight the loss gradient, reduce inside the
/// per-batch backward) matches materialize-then-clip-reduce within the
/// reassociation tolerance — the paper's central algorithmic identity,
/// checked at batch sizes 1, 2 and 33.
#[test]
fn fused_reweighted_backward_matches_materialized_clip_reduce() {
    let mut rng = DivaRng::seed_from_u64(23);
    let net = cnn(&mut rng);
    for &b in &[1usize, 2, 33] {
        let (caches, grad_loss) = forward_loss(&net, b, &mut rng);
        let factors: Vec<f64> = (0..b).map(|i| 1.0 / (1.0 + (i % 5) as f64)).collect();
        let fused = net.backward_reweighted(&caches, &grad_loss, &factors);
        let materialized = net
            .backward(&caches, &grad_loss, GradMode::PerExample)
            .weighted_reduce(&factors);
        let a = fused.flatten_per_batch();
        let c = materialized.flatten_per_batch();
        assert_eq!(a.len(), c.len());
        for (i, (x, y)) in a.iter().zip(&c).enumerate() {
            assert!(
                (x - y).abs() < 1e-4,
                "b={b}: fused vs materialized diverged at {i}: {x} vs {y}"
            );
        }
    }
}

/// The benchmark CNN (`mnist_cnn`): a network row of 409,034 parameters.
fn mnist_cnn(rng: &mut DivaRng) -> Network {
    Network::new(vec![
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
    ])
}

/// Convolution and GroupNorm ahead of a dense layer: a 16,880-element
/// network row, past the buffer pool's 64 KiB threshold even for one
/// example.
fn conv_group_norm(rng: &mut DivaRng) -> Network {
    Network::new(vec![
        Layer::conv2d(3, 16, 3, 1, 1, 8, 8, rng),
        Layer::group_norm(16, 4),
        Layer::relu(),
        Layer::flatten(),
        Layer::dense(16 * 64, 16, true, rng),
    ])
}

/// Embedding, LSTM and dense over 4-token sequences from an 11-word
/// vocabulary.
fn embedding_lstm(rng: &mut DivaRng) -> Network {
    Network::new(vec![
        Layer::embedding(11, 6, rng),
        Layer::lstm(6, 5, rng),
        Layer::flatten(),
        Layer::dense(4 * 5, 3, true, rng),
    ])
}

/// A seeded batch of `b` inputs for each network above.
fn input(name: &str, b: usize, rng: &mut DivaRng) -> Tensor {
    match name {
        "cnn" => Tensor::uniform(&[b, 1, 6, 6], -1.0, 1.0, rng),
        "mnist_cnn" => Tensor::uniform(&[b, 1, 28, 28], 0.0, 1.0, rng),
        "conv_group_norm" => Tensor::uniform(&[b, 3, 8, 8], -1.0, 1.0, rng),
        "embedding_lstm" => {
            let ids = (0..b * 4).map(|_| (rng.uniform(0.0, 11.0) as usize).min(10) as f32);
            Tensor::from_vec(ids.collect(), &[b, 4])
        }
        other => panic!("no input for {other}"),
    }
}

/// `diva_dp::clip_factors`' rule with bound `c`: `min(1, c / ‖gᵢ‖)`.
fn clip_rule(c: f64, sq_norms: &[f64]) -> Vec<f64> {
    sq_norms
        .iter()
        .map(|&sq| {
            let n = sq.sqrt();
            if n > c {
                c / n
            } else {
                1.0
            }
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Every per-batch gradient tensor as (layer index, shape, bits).
fn grad_bits(grads: &NetworkGrads) -> Vec<(usize, Vec<usize>, Vec<u32>)> {
    let mut out = Vec::new();
    for (idx, g) in grads.layers.iter().enumerate() {
        match g {
            ParamGrads::None => {}
            ParamGrads::PerBatch(ts) => out.extend(
                ts.iter()
                    .map(|t| (idx, t.shape().dims().to_vec(), bits(t.data()))),
            ),
            other => panic!("expected per-batch gradients, got {other:?}"),
        }
    }
    out
}

/// DP-SGD's streamed clipped sum equals the materialized oracle —
/// `backward(PerExample)`, `per_example_sq_norms`, the same clip rule,
/// `weighted_reduce` — bit for bit: the reduced gradient, each example's
/// squared norm and each clip factor. Covered: every parameter-layer kind,
/// batches that leave a lone partial block or a short tail block, and
/// pool widths whose blocks hold 4 or 8 examples. Before every streamed
/// call the buffer pool is seeded with NaN buffers the size of the call's
/// block buffer, so a row the stream reads before writing it shows.
#[test]
fn streamed_clipped_sum_equals_the_materialized_path_bitwise() {
    let mut rng = DivaRng::seed_from_u64(25);
    let nets = [
        ("cnn", cnn(&mut rng)),
        ("mnist_cnn", mnist_cnn(&mut rng)),
        ("conv_group_norm", conv_group_norm(&mut rng)),
        ("embedding_lstm", embedding_lstm(&mut rng)),
    ];
    for (name, net) in &nets {
        let row_len = net.param_count();
        for b in [1usize, 2, 3, 5, 33] {
            let x = input(name, b, &mut rng);
            let labels: Vec<usize> = (0..b).map(|i| i % 3).collect();
            let (caches, grad_loss): (Vec<LayerCache>, Tensor) = Backend::serial().install(|| {
                let (y, caches) = net.forward(&x);
                (caches, softmax_cross_entropy(&y, &labels).grad_logits)
            });
            let (oracle, norms, factors, c) = Backend::serial().install(|| {
                let per_ex = net.backward(&caches, &grad_loss, GradMode::PerExample);
                let norms = per_ex.per_example_sq_norms();
                // A bound just under the median norm, so some examples clip.
                let mut sorted = norms.clone();
                sorted.sort_by(f64::total_cmp);
                let c = 0.9 * sorted[b / 2].sqrt();
                let factors = clip_rule(c, &norms);
                (per_ex.weighted_reduce(&factors), norms, factors, c)
            });
            for threads in [1usize, 2, 3, 5] {
                let backend = if threads == 1 {
                    Backend::serial()
                } else {
                    Backend::with_threads(threads)
                };
                let block = threads.next_multiple_of(4).min(b);
                drop(Buffer::from(vec![f32::NAN; block * row_len]));
                let mut seen = Vec::new();
                let (streamed, sq_norms) = backend.install(|| {
                    net.clipped_sum(&caches, &grad_loss, |sq| {
                        let f = clip_rule(c, sq);
                        seen.extend_from_slice(&f);
                        f
                    })
                });
                let what = format!("{name} b={b} {}", backend.label());
                assert_eq!(grad_bits(&streamed), grad_bits(&oracle), "{what}: gradient");
                let to_bits = |v: &[f64]| v.iter().map(|n| n.to_bits()).collect::<Vec<_>>();
                assert_eq!(to_bits(&sq_norms), to_bits(&norms), "{what}: norms");
                assert_eq!(to_bits(&seen), to_bits(&factors), "{what}: factors");
            }
        }
    }
}

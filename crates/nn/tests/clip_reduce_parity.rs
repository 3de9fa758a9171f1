//! Parity contract for the fused/parallel clip-reduce pipeline: the
//! parallel `weighted_reduce` and the fused `backward_reweighted` of
//! DP-SGD(R) must agree with straightforward serial accumulation across
//! the batch sizes DP-SGD cares about (1, 2, 33) and across worker counts.

use diva_nn::{GradMode, Layer, Network, NetworkGrads, ParamGrads};
use diva_tensor::{softmax_cross_entropy, Backend, DivaRng, Tensor};

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

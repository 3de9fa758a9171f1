//! Fused-vs-naive parity for the patch-reuse convolution backward.
//!
//! The fused path (shared batch `im2col` + strided per-example GEMM
//! windows) must be **bit-identical** — not
//! epsilon-close — to the naive per-example `im2col` path it replaced, for
//! every gradient mode, across odd spatial shapes, stride/padding combos,
//! the DP-SGD batch sizes 1/2/33, and any worker-thread count. Bit
//! identity holds because the fused GEMM keeps the same routing decision,
//! the same K-panel boundaries and the same per-element k-ascending
//! accumulation order; only operand roles are swapped, and IEEE-754
//! multiplication (including through FMA) is commutative.
//!
//! The naive reference below reconstructs the pre-fusion implementation
//! verbatim from the public tensor API: slice the example, lower it with
//! its own `im2col` (inside `conv2d_backward_weight`), run the
//! `(C_in·R·S, P·Q, C_out)` GEMM, and reduce the bias over spatial
//! positions.

use diva_nn::{slice_example, Conv2dLayer, GradMode, ParamGrads};
use diva_tensor::{conv2d_backward_weight, Backend, Conv2dGeom, DivaRng, Tensor};

/// The pre-fusion per-example gradients: `[G(W)_i, G(b)_i]`.
fn naive_example_grads(x: &Tensor, gy: &Tensor, geom: &Conv2dGeom, i: usize) -> Vec<Tensor> {
    let xi = slice_example(x, i);
    let gi = slice_example(gy, i);
    let gw = conv2d_backward_weight(&xi, &gi, geom);
    // Bias gradient exactly as the pre-fusion layer computed it: per
    // channel, sum the contiguous P·Q block of the sliced NCHW gradient.
    let dims = gi.shape().dims();
    let (c, p, q) = (dims[1], dims[2], dims[3]);
    let mut gb = Tensor::zeros(&[c]);
    for ci in 0..c {
        let base = ci * p * q;
        let s: f32 = gi.data()[base..base + p * q].iter().sum();
        gb.data_mut()[ci] += s;
    }
    vec![gw, gb]
}

/// Geometries with odd channel counts, non-square inputs, stride and
/// padding variety; the last is large enough to route the per-example GEMM
/// through the blocked/packed kernel (`C_out·P·Q·C_in·R·S ≥ 48³`, `P·Q ≥
/// 16`), so both the reference and the packed code paths are pinned.
fn parity_geoms() -> Vec<Conv2dGeom> {
    vec![
        Conv2dGeom::new(3, 5, 3, 1, 1, 9, 7),
        Conv2dGeom::new(2, 4, 3, 2, 1, 8, 8),
        Conv2dGeom::new(5, 3, 1, 1, 0, 6, 6),
        Conv2dGeom::new(2, 6, 3, 2, 2, 7, 5),
        Conv2dGeom::new(8, 24, 3, 1, 1, 12, 12),
    ]
}

fn layer_for(geom: &Conv2dGeom, rng: &mut DivaRng) -> Conv2dLayer {
    Conv2dLayer::new(
        geom.cin,
        geom.cout,
        geom.k,
        geom.stride,
        geom.pad,
        geom.in_h,
        geom.in_w,
        rng,
    )
}

#[test]
fn fused_norm_only_is_bit_identical_to_naive_path() {
    let mut rng = DivaRng::seed_from_u64(0xc0de);
    for geom in parity_geoms() {
        for &batch in &[1usize, 2, 33] {
            let layer = layer_for(&geom, &mut rng);
            let x = Tensor::uniform(
                &[batch, geom.cin, geom.in_h, geom.in_w],
                -1.0,
                1.0,
                &mut rng,
            );
            let (y, cache) = layer.forward(&x);
            let gy = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);

            let naive: Vec<f64> = (0..batch)
                .map(|i| {
                    naive_example_grads(&x, &gy, &geom, i)
                        .iter()
                        .map(Tensor::squared_norm)
                        .sum()
                })
                .collect();
            for &threads in &[1usize, 4, 8] {
                let fused = Backend::with_threads(threads)
                    .install(|| layer.backward(&cache, &gy, GradMode::NormOnly));
                let ParamGrads::SqNorms(norms) = &fused.grads else {
                    panic!("NormOnly must yield SqNorms");
                };
                assert_eq!(
                    norms, &naive,
                    "norms diverged from naive path: {geom:?} b={batch} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn fused_per_example_grads_are_bit_identical_to_naive_path() {
    let mut rng = DivaRng::seed_from_u64(0xfaded);
    for geom in parity_geoms() {
        for &batch in &[1usize, 2, 33] {
            let layer = layer_for(&geom, &mut rng);
            let x = Tensor::uniform(
                &[batch, geom.cin, geom.in_h, geom.in_w],
                -1.0,
                1.0,
                &mut rng,
            );
            let (y, cache) = layer.forward(&x);
            let gy = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);

            for &threads in &[1usize, 4, 8] {
                let fused = Backend::with_threads(threads)
                    .install(|| layer.backward(&cache, &gy, GradMode::PerExample));
                let ParamGrads::PerExample(arena) = &fused.grads else {
                    panic!("PerExample must yield per-example gradients");
                };
                assert_eq!(arena.batch(), batch);
                for i in 0..batch {
                    let naive = naive_example_grads(&x, &gy, &geom, i);
                    assert_eq!(arena.param_shapes().len(), naive.len());
                    for (pi, n) in naive.iter().enumerate() {
                        // The naive gradient keeps a leading batch dim of
                        // 1 on neither tensor (both are (Cout, Cin, R, S)
                        // / (Cout,)); compare raw data bit-for-bit.
                        assert_eq!(
                            arena.param(i, pi),
                            n.data(),
                            "param {pi} of example {i} diverged: {geom:?} b={batch} \
                             threads={threads}"
                        );
                    }
                    // The norm taken while the row was hot is the naive
                    // path's norm, bit for bit.
                    let naive_norm: f64 = naive.iter().map(Tensor::squared_norm).sum();
                    assert_eq!(arena.sq_norms()[i], naive_norm, "norm {i}: {geom:?}");
                }
            }
        }
    }
}

/// DP-SGD(R)'s second backward runs on the forward cache its first pass
/// already read: a PerBatch pass on a cache that a NormOnly pass has run
/// on and one on a *fresh* cache must agree bit-for-bit, weight, bias and
/// data gradients alike.
#[test]
fn second_backward_on_shared_cache_matches_fresh_cache() {
    let mut rng = DivaRng::seed_from_u64(0xb0b);
    for geom in parity_geoms() {
        let batch = 9;
        let layer = layer_for(&geom, &mut rng);
        let x = Tensor::uniform(
            &[batch, geom.cin, geom.in_h, geom.in_w],
            -1.0,
            1.0,
            &mut rng,
        );
        let (y, warm_cache) = layer.forward(&x);
        let (_, cold_cache) = layer.forward(&x);
        let gy = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);

        // A first pass on the shared cache, as DP-SGD(R) runs.
        let _ = layer.backward(&warm_cache, &gy, GradMode::NormOnly);
        let warm = layer.backward(&warm_cache, &gy, GradMode::PerBatch);
        let cold = layer.backward(&cold_cache, &gy, GradMode::PerBatch);
        let (ParamGrads::PerBatch(a), ParamGrads::PerBatch(b)) = (&warm.grads, &cold.grads) else {
            panic!("expected per-batch gradients");
        };
        for (wa, ca) in a.iter().zip(b) {
            assert_eq!(
                wa.data(),
                ca.data(),
                "a second backward on the shared cache changed results: {geom:?}"
            );
        }
        assert_eq!(
            warm.grad_input.unwrap().data(),
            cold.grad_input.unwrap().data(),
            "a second backward on the shared cache changed the data gradient: {geom:?}"
        );
    }
}

/// Thread-count bit-stability of the fused path itself (the parallel fan
///-out and the M-parallel GEMM split must be invisible).
#[test]
fn fused_path_is_bit_stable_across_thread_counts() {
    let mut rng = DivaRng::seed_from_u64(0x7ead);
    let geom = Conv2dGeom::new(8, 24, 3, 1, 1, 12, 12);
    let layer = layer_for(&geom, &mut rng);
    let x = Tensor::uniform(&[33, 8, 12, 12], -1.0, 1.0, &mut rng);
    let (y, cache) = layer.forward(&x);
    let gy = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);
    let baseline = Backend::serial().install(|| layer.backward(&cache, &gy, GradMode::NormOnly));
    let ParamGrads::SqNorms(base) = baseline.grads else {
        panic!("expected norms");
    };
    for threads in [2usize, 4, 8] {
        let run = Backend::with_threads(threads)
            .install(|| layer.backward(&cache, &gy, GradMode::NormOnly));
        let ParamGrads::SqNorms(n) = run.grads else {
            panic!("expected norms");
        };
        assert_eq!(n, base, "thread count {threads} changed fused norms");
    }
}

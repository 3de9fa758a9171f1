//! Thread parity of the pool-split data movement around the GEMMs.
//!
//! `im2col`, `col2im`, `nchw_to_rows`, the convolution forward's
//! per-example GEMM tile and its reorder to NCHW with the bias, the
//! convolution data gradient's per-example tile and fold, the convolution
//! bias gradient, max and average pooling and ReLU each run one pool task
//! per example (ReLU: per fixed-size block). The oracles below are the
//! serial loops those kernels replaced, kept verbatim apart from the
//! max-pool argmax, which now starts at each window's own first element.
//! Every split kernel must equal its oracle bit for bit at widths 1–4, over
//! stride-2, pad-0/1/2 and 1×1 geometries, geometries large enough for the
//! blocked GEMM route, and batches of 1, 5 and 33 — inputs salted with
//! −0.0, NaN and −∞ where the kernel's sign and NaN handling matter.

use diva_nn::{Conv2dLayer, GradMode, Layer, LayerCache};
use diva_tensor::{
    col2im, im2col, matmul, matmul_nt, nchw_to_rows, Backend, Conv2dGeom, DivaRng, Kernel, Tensor,
};

const THREADS: [usize; 4] = [1, 2, 3, 4];
const BATCHES: [usize; 3] = [1, 5, 33];

/// The first five route every convolution GEMM through the scalar
/// reference loop. The sixth takes the blocked kernel at batch 33 only:
/// there the whole batch's forward and data-gradient GEMMs pass `48³`
/// multiply-adds while each example's stays under it, so the route must
/// come from the batch. The next two take the blocked kernel at every
/// batch. The last, the benchmark CNN's first layer, runs its forward on
/// the tiny-K route (`C_in·R·S = 9`) at every batch, and its weight
/// gradient is one `NR` strip wide.
fn geoms() -> Vec<Conv2dGeom> {
    vec![
        Conv2dGeom::new(3, 5, 3, 2, 1, 9, 7),
        Conv2dGeom::new(2, 4, 3, 1, 0, 8, 6),
        Conv2dGeom::new(2, 3, 3, 2, 0, 7, 9),
        Conv2dGeom::new(4, 3, 1, 1, 0, 5, 5),
        Conv2dGeom::new(2, 6, 3, 2, 2, 7, 5),
        Conv2dGeom::new(2, 16, 3, 1, 1, 8, 8),
        // The benchmark CNN's conv2.
        Conv2dGeom::new(16, 32, 3, 1, 1, 14, 14),
        Conv2dGeom::new(16, 24, 3, 2, 1, 15, 13),
        // The benchmark CNN's conv1.
        Conv2dGeom::new(1, 16, 3, 1, 1, 28, 28),
    ]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// [`bits`] with every NaN as one NaN: where two NaNs meet in a sum, which
/// one comes out depends on the operand order the compiler picks for the
/// add or FMA, so only the positions of the NaNs are comparable.
fn bits_nan_as_one(t: &Tensor) -> Vec<u32> {
    let nan = f32::NAN.to_bits();
    t.data()
        .iter()
        .map(|v| if v.is_nan() { nan } else { v.to_bits() })
        .collect()
}

/// A uniform tensor with every 7th element −0.0 and, if `nan`, every 11th
/// NaN and every 13th −∞.
fn salted(dims: &[usize], nan: bool, rng: &mut DivaRng) -> Tensor {
    let mut t = Tensor::uniform(dims, -1.0, 1.0, rng);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        if i % 7 == 3 {
            *v = -0.0;
        } else if nan && i % 11 == 5 {
            *v = f32::NAN;
        } else if nan && i % 13 == 6 {
            *v = f32::NEG_INFINITY;
        }
    }
    t
}

/// A uniform tensor with one NaN and one −∞ in every `gap` elements, and
/// every other 7th element −0.0. Sparse enough that the sums of a
/// convolution's data gradient come out NaN at some elements and finite
/// or infinite at others.
fn sparsely_salted(dims: &[usize], gap: usize, rng: &mut DivaRng) -> Tensor {
    let mut t = Tensor::uniform(dims, -1.0, 1.0, rng);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        if i % gap == gap / 2 {
            *v = f32::NAN;
        } else if i % gap == gap / 3 {
            *v = f32::NEG_INFINITY;
        } else if i % 7 == 3 {
            *v = -0.0;
        }
    }
    t
}

/// Asserts `kernel()` is bitwise `oracle` at every width.
fn assert_split_matches(what: &str, oracle: &Tensor, kernel: impl Fn() -> Tensor) {
    assert_split_matches_on(Kernel::Safe, what, oracle, kernel);
}

/// Asserts `kernel()` is bitwise `oracle` at every width on GEMM `arm`.
fn assert_split_matches_on(arm: Kernel, what: &str, oracle: &Tensor, kernel: impl Fn() -> Tensor) {
    assert_split_matches_as(bits, arm, what, oracle, kernel);
}

/// Asserts `kernel()` equals `oracle` under `key` at every width on GEMM
/// `arm`.
fn assert_split_matches_as(
    key: fn(&Tensor) -> Vec<u32>,
    arm: Kernel,
    what: &str,
    oracle: &Tensor,
    kernel: impl Fn() -> Tensor,
) {
    let want = key(oracle);
    for threads in THREADS {
        let got = Backend::with_threads(threads)
            .with_kernel(arm)
            .install(&kernel);
        assert_eq!(got.shape(), oracle.shape(), "{what}: shape");
        assert!(
            key(&got) == want,
            "{what}: {arm:?} threads={threads} diverged"
        );
    }
}

fn im2col_serial(input: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let dims = input.shape().dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (p, q) = geom.out_hw();
    let patch = geom.patch_len();
    let mut out = Tensor::zeros(&[n * p * q, patch]);
    let iv = input.data();
    let ov = out.data_mut();
    let k = geom.k;
    for ni in 0..n {
        for pi in 0..p {
            for qi in 0..q {
                let row = (ni * p + pi) * q + qi;
                let base = row * patch;
                for ci in 0..c {
                    for ki in 0..k {
                        let ih = (pi * geom.stride + ki) as isize - geom.pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kj in 0..k {
                            let iw = (qi * geom.stride + kj) as isize - geom.pad as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            let src = ((ni * c + ci) * h + ih as usize) * w + iw as usize;
                            let dst = base + (ci * k + ki) * k + kj;
                            ov[dst] = iv[src];
                        }
                    }
                }
            }
        }
    }
    out
}

fn col2im_serial(cols: &Tensor, geom: &Conv2dGeom, n: usize) -> Tensor {
    let (p, q) = geom.out_hw();
    let patch = geom.patch_len();
    let (c, h, w) = (geom.cin, geom.in_h, geom.in_w);
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let ov = out.data_mut();
    let cv = cols.data();
    let k = geom.k;
    for ni in 0..n {
        for pi in 0..p {
            for qi in 0..q {
                let row = (ni * p + pi) * q + qi;
                let base = row * patch;
                for ci in 0..c {
                    for ki in 0..k {
                        let ih = (pi * geom.stride + ki) as isize - geom.pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kj in 0..k {
                            let iw = (qi * geom.stride + kj) as isize - geom.pad as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            let dst = ((ni * c + ci) * h + ih as usize) * w + iw as usize;
                            let src = base + (ci * k + ki) * k + kj;
                            ov[dst] += cv[src];
                        }
                    }
                }
            }
        }
    }
    out
}

fn nchw_to_rows_serial(t: &Tensor) -> Tensor {
    let dims = t.shape().dims();
    let (n, c, p, q) = (dims[0], dims[1], dims[2], dims[3]);
    let mut out = Tensor::zeros(&[n * p * q, c]);
    let tv = t.data();
    let ov = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for pi in 0..p {
                for qi in 0..q {
                    let row = (ni * p + pi) * q + qi;
                    ov[row * c + ci] = tv[((ni * c + ci) * p + pi) * q + qi];
                }
            }
        }
    }
    out
}

/// The convolution forward as it ran serially: one GEMM, the rows→NCHW
/// reorder, then a separate bias loop.
fn conv_forward_serial(x: &Tensor, weight: &Tensor, bias: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let n = x.shape().dim(0);
    let (p, q) = geom.out_hw();
    let cout = geom.cout;
    let w2d = weight.clone().reshape(&[cout, geom.patch_len()]);
    let y = Backend::serial().install(|| matmul_nt(&im2col_serial(x, geom), &w2d));
    let mut out = Tensor::zeros(&[n, cout, p, q]);
    let yv = y.data();
    let ov = out.data_mut();
    for ni in 0..n {
        for pi in 0..p {
            for qi in 0..q {
                let row = (ni * p + pi) * q + qi;
                for co in 0..cout {
                    ov[((ni * cout + co) * p + pi) * q + qi] = yv[row * cout + co];
                }
            }
        }
    }
    for ni in 0..n {
        for ci in 0..cout {
            let bc = bias.data()[ci];
            let base = (ni * cout + ci) * p * q;
            for v in &mut ov[base..base + p * q] {
                *v += bc;
            }
        }
    }
    out
}

/// The convolution data gradient as it ran before the per-example tiles:
/// the gradient flattened to rows, one whole-batch GEMM with the filter
/// matrix on GEMM `arm`, then the fold.
fn conv_data_grad_serial(gy: &Tensor, weight: &Tensor, geom: &Conv2dGeom, arm: Kernel) -> Tensor {
    let n = gy.shape().dim(0);
    let w2d = weight.clone().reshape(&[geom.cout, geom.patch_len()]);
    let rows = nchw_to_rows_serial(gy);
    let dpatches = Backend::serial()
        .with_kernel(arm)
        .install(|| matmul(&rows, &w2d));
    col2im_serial(&dpatches, geom, n)
}

fn bias_grad_serial(grad_out: &Tensor) -> Tensor {
    let dims = grad_out.shape().dims();
    let (n, c, p, q) = (dims[0], dims[1], dims[2], dims[3]);
    let mut out = Tensor::zeros(&[c]);
    let gv = grad_out.data();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * p * q;
            let s: f32 = gv[base..base + p * q].iter().sum();
            out.data_mut()[ci] += s;
        }
    }
    out
}

fn avg_pool_serial(x: &Tensor, k: usize) -> Tensor {
    let d = x.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (p, q) = (h / k, w / k);
    let mut y = Tensor::zeros(&[n, c, p, q]);
    let xv = x.data();
    let yv = y.data_mut();
    let inv = 1.0 / (k * k) as f32;
    for ni in 0..n {
        for ci in 0..c {
            for pi in 0..p {
                for qi in 0..q {
                    let mut acc = 0.0;
                    for di in 0..k {
                        for dj in 0..k {
                            acc += xv[((ni * c + ci) * h + pi * k + di) * w + qi * k + dj];
                        }
                    }
                    yv[((ni * c + ci) * p + pi) * q + qi] = acc * inv;
                }
            }
        }
    }
    y
}

fn avg_pool_backward_serial(in_dims: &[usize], g: &Tensor, k: usize) -> Tensor {
    let (n, c, h, w) = (in_dims[0], in_dims[1], in_dims[2], in_dims[3]);
    let (p, q) = (h / k, w / k);
    let mut gx = Tensor::zeros(in_dims);
    let gv = g.data();
    let xv = gx.data_mut();
    let inv = 1.0 / (k * k) as f32;
    for ni in 0..n {
        for ci in 0..c {
            for pi in 0..p {
                for qi in 0..q {
                    let go = gv[((ni * c + ci) * p + pi) * q + qi] * inv;
                    for di in 0..k {
                        for dj in 0..k {
                            xv[((ni * c + ci) * h + pi * k + di) * w + qi * k + dj] += go;
                        }
                    }
                }
            }
        }
    }
    gx
}

/// Max pooling and its backward, serially. The argmax starts at each
/// window's first element (the serial loop started every window at flat
/// index 0, which leaked gradients across examples).
fn max_pool_serial(x: &Tensor, g: &Tensor, k: usize) -> (Tensor, Tensor) {
    let d = x.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (p, q) = (h / k, w / k);
    let mut y = Tensor::zeros(&[n, c, p, q]);
    let mut argmax = vec![0usize; n * c * p * q];
    let xv = x.data();
    let yv = y.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for pi in 0..p {
                for qi in 0..q {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = ((ni * c + ci) * h + pi * k) * w + qi * k;
                    for di in 0..k {
                        for dj in 0..k {
                            let idx = ((ni * c + ci) * h + pi * k + di) * w + qi * k + dj;
                            if xv[idx] > best {
                                best = xv[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let out_idx = ((ni * c + ci) * p + pi) * q + qi;
                    yv[out_idx] = best;
                    argmax[out_idx] = best_idx;
                }
            }
        }
    }
    let mut gx = Tensor::zeros(d);
    let xv = gx.data_mut();
    for (out_idx, &in_idx) in argmax.iter().enumerate() {
        xv[in_idx] += g.data()[out_idx];
    }
    (y, gx)
}

fn relu_serial(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    for v in out.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    out
}

fn relu_backward_serial(grad_out: &Tensor, input: &Tensor) -> Tensor {
    let mut out = grad_out.clone();
    for (g, &x) in out.data_mut().iter_mut().zip(input.data()) {
        if x <= 0.0 {
            *g = 0.0;
        }
    }
    out
}

#[test]
fn conv_data_movement_matches_serial_loops() {
    let mut rng = DivaRng::seed_from_u64(0xda7a);
    for geom in geoms() {
        let (p, q) = geom.out_hw();
        for batch in BATCHES {
            let tag = format!("{geom:?} b={batch}");
            let x = salted(&[batch, geom.cin, geom.in_h, geom.in_w], false, &mut rng);
            assert_split_matches(&format!("im2col {tag}"), &im2col_serial(&x, &geom), || {
                im2col(&x, &geom)
            });
            let cols = salted(&[batch * p * q, geom.patch_len()], false, &mut rng);
            assert_split_matches(
                &format!("col2im {tag}"),
                &col2im_serial(&cols, &geom, batch),
                || col2im(&cols, &geom, batch),
            );
            let gy = salted(&[batch, geom.cout, p, q], false, &mut rng);
            assert_split_matches(
                &format!("nchw_to_rows {tag}"),
                &nchw_to_rows_serial(&gy),
                || nchw_to_rows(&gy, &geom),
            );
        }
    }
}

#[test]
fn conv_layer_bias_paths_match_serial_loops() {
    let mut rng = DivaRng::seed_from_u64(0xb1a5);
    for geom in geoms() {
        let (p, q) = geom.out_hw();
        for batch in BATCHES {
            let tag = format!("{geom:?} b={batch}");
            let mut layer = Conv2dLayer::new(
                geom.cin,
                geom.cout,
                geom.k,
                geom.stride,
                geom.pad,
                geom.in_h,
                geom.in_w,
                &mut rng,
            );
            let bias = salted(&[geom.cout], false, &mut rng);
            *layer.params_mut()[1] = bias.clone();
            let weight = layer.params()[0].clone();
            let x = salted(&[batch, geom.cin, geom.in_h, geom.in_w], false, &mut rng);
            assert_split_matches(
                &format!("conv forward {tag}"),
                &conv_forward_serial(&x, &weight, &bias, &geom),
                || layer.forward(&x).0,
            );
            let (_, cache) = layer.forward(&x);
            let gy = salted(&[batch, geom.cout, p, q], false, &mut rng);
            assert_split_matches(&format!("bias grad {tag}"), &bias_grad_serial(&gy), || {
                let grads = layer.backward(&cache, &gy, GradMode::PerBatch).grads;
                grads.expect_per_batch()[1].clone()
            });
            // One NaN and one −∞ in the weights, +0.0 and −0.0 in the input
            // besides the padding: the blocked route multiplies every zero
            // patch value out (0 × ∞ is NaN), the scalar routes skip it, so
            // a zero skip on the wrong operand, or a padding slot read from
            // the input, shows. Every NaN compares as one.
            let weight = sparsely_salted(
                &[geom.cout, geom.cin, geom.k, geom.k],
                geom.weight_len(),
                &mut rng,
            );
            *layer.params_mut()[0] = weight.clone();
            let mut x = x;
            for v in x.data_mut().iter_mut().skip(2).step_by(9) {
                *v = 0.0;
            }
            assert_split_matches_as(
                bits_nan_as_one,
                Kernel::Safe,
                &format!("conv forward {tag} NaN weights"),
                &conv_forward_serial(&x, &weight, &bias, &geom),
                || layer.forward(&x).0,
            );
        }
    }
}

/// The layer's input gradient — a per-example `Wᵀ × G(Y)_i` tile folded in
/// place — must be bitwise the whole-batch GEMM of the gradient rows, then
/// `col2im`, on both GEMM arms: the blocked route keeps its K panels and
/// FMA sequence (transposed, which FMA's commutativity makes invisible),
/// the reference route its zero skip on the gradient. Gradients and
/// weights are salted with −0.0, and in a second round the gradients with
/// NaN and −∞ as well, so a zero skip on the wrong operand shows (−∞ times
/// a −0.0 weight is NaN, unless skipped). A third round, on tensors of its
/// own generator, salts weights *and* gradients with NaN and −∞ — one of
/// each per weight tensor, sparse in the gradient, so NaN and non-NaN
/// elements both come out — and compares with every NaN as one
/// ([`bits_nan_as_one`]): it pins which elements come out NaN, not a NaN's
/// sign.
#[test]
fn conv_data_gradient_matches_serial_loops() {
    let mut rng = DivaRng::seed_from_u64(0xd9ad);
    let mut nan_rng = DivaRng::seed_from_u64(0x7fc0);
    for geom in geoms() {
        let (p, q) = geom.out_hw();
        for batch in BATCHES {
            let mut layer = Conv2dLayer::new(
                geom.cin,
                geom.cout,
                geom.k,
                geom.stride,
                geom.pad,
                geom.in_h,
                geom.in_w,
                &mut rng,
            );
            let x = salted(&[batch, geom.cin, geom.in_h, geom.in_w], false, &mut rng);
            let (_, cache) = layer.forward(&x);
            for nan in [false, true] {
                let weight = salted(&[geom.cout, geom.cin, geom.k, geom.k], false, &mut rng);
                *layer.params_mut()[0] = weight.clone();
                let gy = salted(&[batch, geom.cout, p, q], nan, &mut rng);
                for arm in [Kernel::Safe, Kernel::Reference] {
                    assert_split_matches_on(
                        arm,
                        &format!("data grad {geom:?} b={batch} nan={nan}"),
                        &conv_data_grad_serial(&gy, &weight, &geom, arm),
                        || {
                            layer
                                .backward(&cache, &gy, GradMode::PerBatch)
                                .grad_input
                                .expect("the input gradient was asked for")
                        },
                    );
                }
            }
            let weight = sparsely_salted(
                &[geom.cout, geom.cin, geom.k, geom.k],
                geom.weight_len(),
                &mut nan_rng,
            );
            *layer.params_mut()[0] = weight.clone();
            let gy = sparsely_salted(&[batch, geom.cout, p, q], 199, &mut nan_rng);
            for arm in [Kernel::Safe, Kernel::Reference] {
                assert_split_matches_as(
                    bits_nan_as_one,
                    arm,
                    &format!("data grad {geom:?} b={batch} NaN weights"),
                    &conv_data_grad_serial(&gy, &weight, &geom, arm),
                    || {
                        layer
                            .backward(&cache, &gy, GradMode::PerBatch)
                            .grad_input
                            .expect("the input gradient was asked for")
                    },
                );
            }
        }
    }
}

/// The backward output of `layer` for `grad`, at the installed width.
fn layer_backward(layer: &Layer, cache: &LayerCache, grad: &Tensor) -> Tensor {
    layer
        .backward(cache, grad, GradMode::PerBatch)
        .grad_input
        .expect("parameter-free layers derive an input gradient")
}

#[test]
fn pooling_matches_serial_loops() {
    let mut rng = DivaRng::seed_from_u64(0x9001);
    for (c, h, w, k) in [
        (3usize, 6usize, 6usize, 2usize),
        (3, 6, 6, 3),
        (2, 4, 8, 2),
        (2, 5, 5, 1),
    ] {
        for batch in BATCHES {
            let tag = format!("({c},{h},{w}) k={k} b={batch}");
            let x = salted(&[batch, c, h, w], true, &mut rng);
            let g = salted(&[batch, c, h / k, w / k], false, &mut rng);

            let avg = Layer::avg_pool2d(k);
            assert_split_matches(&format!("avg fwd {tag}"), &avg_pool_serial(&x, k), || {
                avg.forward(&x).0
            });
            let (_, cache) = avg.forward(&x);
            let want = avg_pool_backward_serial(x.shape().dims(), &g, k);
            assert_split_matches(&format!("avg bwd {tag}"), &want, || {
                layer_backward(&avg, &cache, &g)
            });

            let max = Layer::max_pool2d(k);
            let (y_want, gx_want) = max_pool_serial(&x, &g, k);
            assert_split_matches(&format!("max fwd {tag}"), &y_want, || max.forward(&x).0);
            assert_split_matches(&format!("max bwd {tag}"), &gx_want, || {
                let (_, cache) = max.forward(&x);
                layer_backward(&max, &cache, &g)
            });
        }
    }
}

#[test]
fn relu_matches_serial_loops() {
    let mut rng = DivaRng::seed_from_u64(0x4e1);
    // 33 × 16 × 28 × 28 spans many 16 Ki-element blocks with a ragged tail.
    for dims in [vec![1usize, 7], vec![5, 3, 4, 4], vec![33, 16, 28, 28]] {
        let x = salted(&dims, true, &mut rng);
        let g = salted(&dims, true, &mut rng);
        let relu = Layer::relu();
        let tag = format!("{dims:?}");
        assert_split_matches(&format!("relu fwd {tag}"), &relu_serial(&x), || {
            relu.forward(&x).0
        });
        assert_split_matches(
            &format!("relu bwd {tag}"),
            &relu_backward_serial(&g, &x),
            || {
                let (_, cache) = relu.forward(&x);
                layer_backward(&relu, &cache, &g)
            },
        );
    }
}

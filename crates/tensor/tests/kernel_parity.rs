//! Kernel-parity contract for the blocked/parallel compute backend: every
//! transpose flavour of the packed GEMM and the GEMM-lowered convolutions
//! must match scalar references across odd shapes, transposes and the
//! batch sizes DP-SGD cares about (1, 2, 33).
//!
//! Tolerance note: within one K panel the blocked kernel accumulates in
//! the same k-ascending order as the reference, but it uses fused
//! multiply-add and splits K beyond the panel length, so parity is pinned
//! to a K-scaled tolerance rather than bit equality (the contract the
//! issue allows where reassociation is in play). The convolution
//! references below are direct loop nests, independent of any GEMM.

use diva_tensor::{
    conv2d, conv2d_backward_data, conv2d_backward_weight, matmul, matmul_nt, matmul_reference,
    matmul_tn, matmul_tt, Conv2dGeom, DivaRng, Tensor,
};

/// Absolute tolerance for accumulations of length `k` over uniform(-1,1)
/// data: FMA-vs-separate rounding and panel reassociation both scale with
/// the accumulation length.
fn tol(k: usize) -> f32 {
    1e-6 * (k as f32).max(16.0)
}

/// Odd, boundary-straddling GEMM shapes; several exceed the blocked-path
/// threshold and the K panel length (768) so multi-panel accumulation and
/// zero-padded tail strips are all exercised.
const SHAPES: [(usize, usize, usize); 7] = [
    (1, 1, 1),
    (33, 7, 5),
    (48, 48, 48),
    (65, 129, 33),
    (97, 803, 51),
    (256, 256, 256),
    (129, 1031, 17),
];

#[test]
fn matmul_matches_reference_on_odd_shapes() {
    let mut rng = DivaRng::seed_from_u64(1);
    for &(m, k, n) in &SHAPES {
        let a = Tensor::uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, &mut rng);
        let fast = matmul(&a, &b);
        let slow = matmul_reference(&a, &b);
        let diff = fast.max_abs_diff(&slow);
        assert!(diff < tol(k), "({m},{k},{n}): diff {diff}");
    }
}

#[test]
fn transpose_flavours_match_reference_on_odd_shapes() {
    let mut rng = DivaRng::seed_from_u64(2);
    for &(m, k, n) in &SHAPES {
        let a = Tensor::uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, &mut rng);
        let slow = matmul_reference(&a, &b);
        let at = a.transpose();
        let bt = b.transpose();
        for (name, fast) in [
            ("tn", matmul_tn(&at, &b)),
            ("nt", matmul_nt(&a, &bt)),
            ("tt", matmul_tt(&at, &bt)),
        ] {
            let diff = fast.max_abs_diff(&slow);
            assert!(diff < tol(k), "{name} ({m},{k},{n}): diff {diff}");
        }
    }
}

/// Direct (loop-nest) convolution oracle, independent of any GEMM.
fn conv2d_direct(input: &Tensor, weight: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let n = input.shape().dim(0);
    let (p, q) = geom.out_hw();
    let mut out = Tensor::zeros(&[n, geom.cout, p, q]);
    for ni in 0..n {
        for co in 0..geom.cout {
            for pi in 0..p {
                for qi in 0..q {
                    let mut acc = 0.0f32;
                    for ci in 0..geom.cin {
                        for ki in 0..geom.k {
                            for kj in 0..geom.k {
                                let ih = (pi * geom.stride + ki) as isize - geom.pad as isize;
                                let iw = (qi * geom.stride + kj) as isize - geom.pad as isize;
                                if ih < 0
                                    || iw < 0
                                    || ih >= geom.in_h as isize
                                    || iw >= geom.in_w as isize
                                {
                                    continue;
                                }
                                acc += input[&[ni, ci, ih as usize, iw as usize]]
                                    * weight[&[co, ci, ki, kj]];
                            }
                        }
                    }
                    out[&[ni, co, pi, qi]] = acc;
                }
            }
        }
    }
    out
}

/// Direct weight-gradient oracle: `gw = Σ_n x ⋆ gy` by definition.
fn conv2d_backward_weight_direct(input: &Tensor, grad_out: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let n = input.shape().dim(0);
    let (p, q) = geom.out_hw();
    let mut gw = Tensor::zeros(&[geom.cout, geom.cin, geom.k, geom.k]);
    for ni in 0..n {
        for co in 0..geom.cout {
            for ci in 0..geom.cin {
                for ki in 0..geom.k {
                    for kj in 0..geom.k {
                        let mut acc = 0.0f32;
                        for pi in 0..p {
                            for qi in 0..q {
                                let ih = (pi * geom.stride + ki) as isize - geom.pad as isize;
                                let iw = (qi * geom.stride + kj) as isize - geom.pad as isize;
                                if ih < 0
                                    || iw < 0
                                    || ih >= geom.in_h as isize
                                    || iw >= geom.in_w as isize
                                {
                                    continue;
                                }
                                acc += input[&[ni, ci, ih as usize, iw as usize]]
                                    * grad_out[&[ni, co, pi, qi]];
                            }
                        }
                        gw[&[co, ci, ki, kj]] += acc;
                    }
                }
            }
        }
    }
    gw
}

/// Direct data-gradient oracle: full correlation of `gy` with the filter.
fn conv2d_backward_data_direct(grad_out: &Tensor, weight: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let n = grad_out.shape().dim(0);
    let (p, q) = geom.out_hw();
    let mut gx = Tensor::zeros(&[n, geom.cin, geom.in_h, geom.in_w]);
    for ni in 0..n {
        for co in 0..geom.cout {
            for pi in 0..p {
                for qi in 0..q {
                    let g = grad_out[&[ni, co, pi, qi]];
                    for ci in 0..geom.cin {
                        for ki in 0..geom.k {
                            for kj in 0..geom.k {
                                let ih = (pi * geom.stride + ki) as isize - geom.pad as isize;
                                let iw = (qi * geom.stride + kj) as isize - geom.pad as isize;
                                if ih < 0
                                    || iw < 0
                                    || ih >= geom.in_h as isize
                                    || iw >= geom.in_w as isize
                                {
                                    continue;
                                }
                                gx[&[ni, ci, ih as usize, iw as usize]] +=
                                    g * weight[&[co, ci, ki, kj]];
                            }
                        }
                    }
                }
            }
        }
    }
    gx
}

/// Convolution geometries with odd channel counts, strides and pads; the
/// batch sizes 1, 2 and 33 cover the degenerate, the minimal-parallel and
/// the odd-split cases the DP-SGD batch axis produces.
#[test]
fn conv_kernels_match_direct_loops_across_batches() {
    let geoms = [
        Conv2dGeom::new(3, 5, 3, 1, 1, 9, 7),
        Conv2dGeom::new(2, 4, 3, 2, 1, 8, 8),
        Conv2dGeom::new(5, 3, 1, 1, 0, 6, 6),
    ];
    let mut rng = DivaRng::seed_from_u64(3);
    for geom in &geoms {
        for &batch in &[1usize, 2, 33] {
            let x = Tensor::uniform(
                &[batch, geom.cin, geom.in_h, geom.in_w],
                -1.0,
                1.0,
                &mut rng,
            );
            let w = Tensor::uniform(&[geom.cout, geom.cin, geom.k, geom.k], -0.5, 0.5, &mut rng);
            let (p, q) = geom.out_hw();
            let gy = Tensor::uniform(&[batch, geom.cout, p, q], -1.0, 1.0, &mut rng);

            let f_tol = tol(geom.patch_len());
            let fwd = conv2d(&x, &w, geom);
            let fwd_ref = conv2d_direct(&x, &w, geom);
            let d = fwd.max_abs_diff(&fwd_ref);
            assert!(d < f_tol, "conv2d b={batch} {geom:?}: diff {d}");

            // The weight gradient reduces over B·P·Q terms.
            let w_tol = tol(batch * p * q);
            let gw = conv2d_backward_weight(&x, &gy, geom);
            let gw_ref = conv2d_backward_weight_direct(&x, &gy, geom);
            let d = gw.max_abs_diff(&gw_ref);
            assert!(d < w_tol, "wgrad b={batch} {geom:?}: diff {d}");

            let gx = conv2d_backward_data(&gy, &w, geom);
            let gx_ref = conv2d_backward_data_direct(&gy, &w, geom);
            let d = gx.max_abs_diff(&gx_ref);
            assert!(d < f_tol, "dgrad b={batch} {geom:?}: diff {d}");
        }
    }
}

/// The M-parallel split must be invisible: results are identical for any
/// worker count because each worker owns disjoint output rows and keeps
/// the serial per-element accumulation order.
#[test]
fn parallel_split_is_bitwise_invisible() {
    let mut rng = DivaRng::seed_from_u64(4);
    let a = Tensor::uniform(&[131, 257], -1.0, 1.0, &mut rng);
    let b = Tensor::uniform(&[257, 65], -1.0, 1.0, &mut rng);
    let serial = diva_tensor::Backend::serial().install(|| matmul(&a, &b));
    for threads in [2usize, 3, 7] {
        let par = diva_tensor::Backend::with_threads(threads).install(|| matmul(&a, &b));
        assert_eq!(
            par.max_abs_diff(&serial),
            0.0,
            "thread count {threads} changed GEMM results"
        );
    }
}

/// The thread matrix — threads 1/4/8 × odd blocked-path shapes — must
/// produce bit-identical outputs: the M split gives each worker disjoint
/// rows of C and keeps every element's FMA sequence, so it may not show up
/// in a single bit. `Kernel::Reference` must be bitwise `matmul_reference`
/// at any width.
#[test]
fn thread_matrix_is_bit_identical() {
    use diva_tensor::{Backend, Kernel};
    // Odd shapes that all route through the blocked/packed path (k >= 16,
    // m*k*n over the threshold), straddling panel and strip boundaries.
    let shapes = [(65usize, 129usize, 33usize), (97, 803, 51), (129, 1031, 17)];
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut rng = DivaRng::seed_from_u64(5);
    for &(m, k, n) in &shapes {
        let a = Tensor::uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, &mut rng);
        let baseline = bits(
            &Backend::serial()
                .with_kernel(Kernel::Safe)
                .install(|| matmul(&a, &b)),
        );
        for threads in [1usize, 4, 8] {
            let out = Backend::with_threads(threads).install(|| matmul(&a, &b));
            assert_eq!(
                bits(&out),
                baseline,
                "({m},{k},{n}) threads={threads} diverged from baseline"
            );
        }
        let reference = bits(&matmul_reference(&a, &b));
        for threads in [1usize, 4] {
            let backend = Backend::with_threads(threads).with_kernel(Kernel::Reference);
            assert_eq!(
                bits(&backend.install(|| matmul(&a, &b))),
                reference,
                "({m},{k},{n}) Reference threads={threads} is not matmul_reference"
            );
        }
    }
}

/// GEMMs with `k < 16` above the blocked-path threshold take the
/// row-parallel tiny-K path (B copied contiguous, C split in row blocks).
/// Every transpose flavour at every thread count must equal the scalar
/// reference bit for bit: the path changes who computes a row, never how.
#[test]
fn tiny_k_gemm_is_bitwise_reference() {
    use diva_tensor::Backend;
    // m·k·n ≥ 48³ for every k below; 1537 rows leave a one-row last block.
    let (m, n) = (1537usize, 75usize);
    let mut rng = DivaRng::seed_from_u64(6);
    for k in [1usize, 3, 9, 15] {
        let a = Tensor::uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, &mut rng);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let reference = bits(&matmul_reference(&a, &b));
        let (at, bt) = (a.transpose(), b.transpose());
        for threads in [1usize, 2, 5] {
            let backend = Backend::with_threads(threads);
            for (name, out) in [
                ("nn", backend.install(|| matmul(&a, &b))),
                ("nt", backend.install(|| matmul_nt(&a, &bt))),
                ("tn", backend.install(|| matmul_tn(&at, &b))),
            ] {
                assert!(
                    bits(&out) == reference,
                    "{name} k={k} threads={threads} diverged from gemm_reference"
                );
            }
        }
    }
}

/// Skinny GEMMs — M a batch size or a channel count, which the M split
/// gives a single worker — split their columns instead. Every transpose
/// flavour at widths 1–4 must be bitwise its 1-thread result: N runs from
/// one `NR` strip to many with a ragged tail, and K always crosses the
/// 768-long K panel and is large enough to reach the column split's work
/// floor. Under `Kernel::Reference` (the benches' `scalar` baselines) every
/// flavour at widths 1 and 4 must be bitwise `matmul_reference`: the split
/// may not pull a reference GEMM onto the blocked path.
#[test]
fn skinny_gemm_thread_matrix_is_bit_identical() {
    use diva_tensor::{Backend, Kernel};
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut rng = DivaRng::seed_from_u64(7);
    for m in [1usize, 6, 32, 47] {
        for n in [16usize, 40, 61, 449] {
            let k = (800usize).max((1 << 21) / (m * n) + 1);
            let a = Tensor::uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::uniform(&[k, n], -1.0, 1.0, &mut rng);
            let (at, bt) = (a.transpose(), b.transpose());
            let flavours = |backend: Backend| {
                backend.install(|| {
                    [
                        ("nn", matmul(&a, &b)),
                        ("nt", matmul_nt(&a, &bt)),
                        ("tn", matmul_tn(&at, &b)),
                        ("tt", matmul_tt(&at, &bt)),
                    ]
                })
            };
            let baseline = flavours(Backend::serial().with_kernel(Kernel::Safe));
            for threads in 1..=4 {
                for ((name, out), (_, base)) in flavours(Backend::with_threads(threads))
                    .iter()
                    .zip(&baseline)
                {
                    assert!(
                        bits(out) == bits(base),
                        "{name} ({m},{k},{n}) threads={threads} diverged"
                    );
                }
            }
            let reference = bits(&matmul_reference(&a, &b));
            for threads in [1usize, 4] {
                let backend = Backend::with_threads(threads).with_kernel(Kernel::Reference);
                for (name, out) in flavours(backend) {
                    assert!(
                        bits(&out) == reference,
                        "{name} ({m},{k},{n}) Reference threads={threads} is not matmul_reference"
                    );
                }
            }
        }
    }
}

/// The per-batch convolution weight gradient runs over each example's K
/// panels, reading the input in place and packing the NCHW gradient one
/// example per panel; past its work floor it splits the `C_in·R·S` patch
/// columns over the pool in `MR`-aligned blocks. It must be bitwise its
/// 1-thread result at widths 1–4, from a one-strip `C_in·R·S` up to
/// several strips with a ragged tail. Under `Kernel::Reference` it
/// must be bitwise the scalar GEMM of the gradient rows' transpose with the
/// `im2col` patches at widths 1 and 4, which the safe kernel is not.
#[test]
fn batch_weight_gradient_thread_matrix_is_bit_identical() {
    use diva_tensor::{im2col, nchw_to_rows, Backend, ConvInput, Kernel};
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut rng = DivaRng::seed_from_u64(8);
    for (geom, batch) in [
        // G(W)ᵀ is 144 × 32 (24 `MR` strips, 2 `NR` strips), K = 5·196.
        (Conv2dGeom::new(16, 32, 3, 1, 1, 14, 14), 5usize),
        // 108 × 6 (one ragged `NR` strip), K = 40·100, stride 2.
        (Conv2dGeom::new(12, 6, 3, 2, 1, 20, 20), 40),
        // 9 × 47 (three `NR` strips, the last ragged).
        (Conv2dGeom::new(1, 47, 3, 1, 1, 28, 28), 4),
        // 9 × 16, K = 20·784: two K panels per example and the nine
        // patch columns split 6:3, past the split's work floor (the
        // benchmark CNN's conv1).
        (Conv2dGeom::new(1, 16, 3, 1, 1, 28, 28), 20),
    ] {
        let x = Tensor::uniform(
            &[batch, geom.cin, geom.in_h, geom.in_w],
            -1.0,
            1.0,
            &mut rng,
        );
        let (p, q) = geom.out_hw();
        let gy = Tensor::uniform(&[batch, geom.cout, p, q], -1.0, 1.0, &mut rng);
        let grad = |backend: Backend| {
            backend.install(|| ConvInput::new(x.clone(), &geom).backward_weight_batch(&gy))
        };
        let baseline = bits(&grad(Backend::serial().with_kernel(Kernel::Safe)));
        for threads in 1..=4 {
            let out = grad(Backend::with_threads(threads));
            assert!(
                bits(&out) == baseline,
                "{geom:?} b={batch} threads={threads} diverged"
            );
        }
        let gy_rows = nchw_to_rows(&gy, &geom);
        let reference = bits(&matmul_reference(&gy_rows.transpose(), &im2col(&x, &geom)));
        assert_ne!(
            baseline, reference,
            "{geom:?}: the safe kernel must differ from the oracle, or the Reference arm pins nothing"
        );
        for threads in [1usize, 4] {
            let out = grad(Backend::with_threads(threads).with_kernel(Kernel::Reference));
            assert!(
                bits(&out) == reference,
                "{geom:?} b={batch} Reference threads={threads} is not matmul_reference"
            );
        }
    }
}

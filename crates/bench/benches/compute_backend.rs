//! Compute-backend throughput: the blocked/parallel kernels versus the
//! seed's scalar loops, on the shapes the acceptance criteria track —
//! 256³ matmul, a conv forward/weight-gradient pair, a full DP-SGD(R)
//! training step at batch 32 (MLP and CNN), the fused implicit-lowering
//! conv first backward versus the naive per-example `im2col` path it
//! replaced,
//! and the accounting engine's batch-ε API versus a naive per-count query
//! loop. Results are written to `BENCH_perf.json` at the workspace root
//! (override with `DIVA_BENCH_OUT`) so subsequent PRs have a trajectory to
//! regress against (`bench_regress` gates the matmul/conv/DP-step/ε rows
//! in CI).
//!
//! Backend sweep: `serial` and `parallel(auto)` rows are recorded for the
//! step benchmarks; on a single-core host the two coincide and the blocked
//! kernel carries the whole speedup.
//!
//! Kernel policy: every row picks its GEMM arm through the `Backend` it
//! runs under, so no row can observe another's configuration. `scalar`
//! rows run `Kernel::Reference` (every GEMM through the seed's scalar
//! loop); every other row runs `Kernel::Safe`, the one blocked
//! micro-kernel. The matmul section records `scalar`, `parallel` (the
//! default backend; informational, with no speedup metric) and
//! `serial_safe`, whose `speedup_vs_scalar` is what `bench_regress` gates
//! for matmul (it also covers the safe kernel's L1 B-strip grouping).
//!
//! Nested-scaling row: `dpsgd_step_b32_nested` runs full DP-SGD steps
//! inside an outer 2-cell parallel region — the scenario-runner shape —
//! with a full-width trainer in each cell (`nested_on`: its per-example
//! fan-out and GEMMs open nested regions) versus a serial one
//! (`nested_off`). The `nested_on` row carries `speedup_vs_nonested`,
//! gated by `bench_regress`: a change that silently re-serializes nested
//! regions shows up as that ratio collapsing on multi-core hosts (on a
//! single-core host both sides coincide at 1.0).

use std::hint::black_box;

use diva_bench::harness::Harness;
use diva_bench::perf::{PerfRecord, PerfSink};
use diva_dp::{
    batch_epsilons, event_epsilon, AccountantKind, DpEvent, DpSgdConfig, DpTrainer,
    TrainingAlgorithm,
};
use diva_nn::{slice_example, Conv2dLayer, GradMode, Layer, Network, ParamGrads};
use std::sync::Mutex;

use diva_tensor::{
    col2im, conv2d, conv2d_backward_weight, matmul, matmul_reference, nchw_to_rows, parallel,
    sq_norm, Backend, Conv2dGeom, DivaRng, Kernel, Tensor,
};

/// The `serial` / `parallel` / `scalar` backends of a conv or DP-step row
/// (see the module docs' kernel policy).
fn row_backends() -> [(&'static str, Backend); 3] {
    [
        ("scalar", Backend::serial().with_kernel(Kernel::Reference)),
        (
            "blocked_serial",
            Backend::serial().with_kernel(Kernel::Safe),
        ),
        (
            "blocked_parallel",
            Backend::auto().with_kernel(Kernel::Safe),
        ),
    ]
}

/// GFLOP/s for a GEMM of the given shape at the measured seconds/iter.
fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    2.0 * (m as f64) * (k as f64) * (n as f64) / secs / 1e9
}

fn bench_matmul(h: &mut Harness, sink: &mut PerfSink) {
    const D: usize = 256;
    let mut rng = DivaRng::seed_from_u64(11);
    let a = Tensor::uniform(&[D, D], -1.0, 1.0, &mut rng);
    let b = Tensor::uniform(&[D, D], -1.0, 1.0, &mut rng);

    h.bench("matmul_256/scalar", || matmul_reference(black_box(&a), &b));

    h.bench("matmul_256/blocked_parallel", || {
        Backend::auto().install(|| matmul(black_box(&a), &b))
    });
    let safe = Backend::serial().with_kernel(Kernel::Safe);
    h.bench("matmul_256/safe_serial", || {
        safe.install(|| matmul(black_box(&a), &b))
    });

    let scalar = h.get("matmul_256/scalar").unwrap().secs_per_iter;
    for (short, backend, gate) in [
        ("scalar", "scalar", true),
        ("blocked_parallel", "parallel", false),
        ("safe_serial", "serial_safe", true),
    ] {
        let secs = h.get(&format!("matmul_256/{short}")).unwrap().secs_per_iter;
        let mut record = PerfRecord::new("matmul_256x256x256")
            .tag("backend", backend)
            .metric("ms", secs * 1e3)
            .metric("gflops", gflops(D, D, D, secs));
        if gate {
            record = record.metric("speedup_vs_scalar", scalar / secs);
        }
        sink.push(record);
    }
}

fn bench_conv(h: &mut Harness, sink: &mut PerfSink) {
    // A mid-network ResNet-ish shape: the forward GEMM is
    // (B·P·Q, Cin·R·S, Cout) = (2048, 576, 64).
    let geom = Conv2dGeom::new(64, 64, 3, 1, 1, 16, 16);
    let mut rng = DivaRng::seed_from_u64(12);
    let x = Tensor::uniform(&[8, 64, 16, 16], -1.0, 1.0, &mut rng);
    let w = Tensor::uniform(&[64, 64, 3, 3], -0.5, 0.5, &mut rng);
    let y = conv2d(&x, &w, &geom);
    let gy = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);
    let (p, q) = geom.out_hw();
    let macs = 8 * p * q * geom.patch_len() * geom.cout;

    for (short, backend) in row_backends() {
        h.bench(&format!("conv_64c_b8/{short}"), || {
            backend.install(|| {
                let f = conv2d(black_box(&x), &w, &geom);
                let g = conv2d_backward_weight(&x, black_box(&gy), &geom);
                (f, g)
            })
        });
    }

    let scalar = h.get("conv_64c_b8/scalar").unwrap().secs_per_iter;
    for (short, backend) in [
        ("scalar", "scalar"),
        ("blocked_serial", "serial"),
        ("blocked_parallel", "parallel"),
    ] {
        let secs = h
            .get(&format!("conv_64c_b8/{short}"))
            .unwrap()
            .secs_per_iter;
        sink.push(
            PerfRecord::new("conv2d_fwd_plus_wgrad_64c_16x16_b8")
                .tag("backend", backend)
                .metric("ms", secs * 1e3)
                // Forward + weight-gradient are two GEMMs of equal MAC count.
                .metric("gflops", 2.0 * 2.0 * macs as f64 / secs / 1e9)
                .metric("speedup_vs_scalar", scalar / secs),
        );
    }
}

/// An MLP sized so its GEMMs exercise the blocked path (the per-step cost
/// the paper's Figure 5 decomposes).
fn step_net(rng: &mut DivaRng) -> Network {
    Network::new(vec![
        Layer::dense(256, 512, true, rng),
        Layer::relu(),
        Layer::dense(512, 256, true, rng),
        Layer::relu(),
        Layer::dense(256, 10, true, rng),
    ])
}

fn bench_dp_step(h: &mut Harness, sink: &mut PerfSink) {
    const B: usize = 32;
    for alg in [TrainingAlgorithm::DpSgdReweighted, TrainingAlgorithm::DpSgd] {
        let label = match alg {
            TrainingAlgorithm::DpSgd => "dpsgd_step_b32",
            _ => "dpsgdr_step_b32",
        };
        let mut rng = DivaRng::seed_from_u64(13);
        let mut net = step_net(&mut rng);
        let x = Tensor::uniform(&[B, 256], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..B).map(|i| i % 10).collect();
        let config = DpSgdConfig {
            algorithm: alg,
            clip_norm: 1.0,
            noise_multiplier: 1.1,
            learning_rate: 0.05,
        };

        for (short, backend) in row_backends() {
            let trainer = DpTrainer::builder().config(config).backend(backend).build();
            h.bench(&format!("{label}/{short}"), || {
                trainer
                    .step(&mut net, black_box(&x), &labels, &mut rng)
                    .mean_loss
            });
        }

        let scalar = h.get(&format!("{label}/scalar")).unwrap().secs_per_iter;
        for (short, backend) in [
            ("scalar", "scalar"),
            ("blocked_serial", "serial"),
            ("blocked_parallel", "parallel"),
        ] {
            let secs = h.get(&format!("{label}/{short}")).unwrap().secs_per_iter;
            sink.push(
                PerfRecord::new(label)
                    .tag("backend", backend)
                    .tag("algorithm", alg.label())
                    .metric("ms", secs * 1e3)
                    .metric("steps_per_sec", 1.0 / secs)
                    .metric("speedup_vs_scalar", scalar / secs),
            );
        }
    }
}

/// The nested-scaling canary (see the module docs): full DP-SGD steps on
/// two independent model replicas inside an outer parallel region — the
/// shape the scenario runner's cell fan-out produces — with a full-width
/// trainer per cell versus a serial one. The `nested_on` row's
/// `speedup_vs_nonested` pins that the inner per-example fan-out really
/// fans out inside the outer region (it reads ~1.0 on a single-core
/// host, above 1 with real workers).
fn bench_nested_step(h: &mut Harness, sink: &mut PerfSink) {
    const B: usize = 32;
    const CELLS: usize = 2;
    let label = "dpsgd_step_b32_nested";
    let mut rng = DivaRng::seed_from_u64(16);
    let x = Tensor::uniform(&[B, 256], -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..B).map(|i| i % 10).collect();
    let config = DpSgdConfig {
        algorithm: TrainingAlgorithm::DpSgd,
        clip_norm: 1.0,
        noise_multiplier: 1.1,
        learning_rate: 0.05,
    };
    // One replica per cell so the outer tasks share nothing mutable; the
    // Mutex is uncontended (each task locks only its own cell).
    let cells: Vec<Mutex<(Network, DivaRng)>> = (0..CELLS)
        .map(|c| {
            let mut cell_rng = DivaRng::seed_from_u64(17 + c as u64);
            let net = step_net(&mut cell_rng);
            Mutex::new((net, cell_rng))
        })
        .collect();
    for (short, backend) in [
        ("nested_off", Backend::serial().with_kernel(Kernel::Safe)),
        ("nested_on", Backend::auto().with_kernel(Kernel::Safe)),
    ] {
        let trainer = DpTrainer::builder().config(config).backend(backend).build();
        h.bench(&format!("{label}/{short}"), || {
            parallel::par_map(CELLS, |c| {
                let mut cell = cells[c].lock().unwrap();
                let (net, cell_rng) = &mut *cell;
                trainer
                    .step(net, black_box(&x), &labels, cell_rng)
                    .mean_loss
            })
        });
    }

    let off = h.get(&format!("{label}/nested_off")).unwrap().secs_per_iter;
    for (short, backend) in [("nested_off", "nested_off"), ("nested_on", "nested_on")] {
        let secs = h.get(&format!("{label}/{short}")).unwrap().secs_per_iter;
        let mut record = PerfRecord::new(label)
            .tag("backend", backend)
            .tag("algorithm", "DP-SGD")
            .metric("ms", secs * 1e3)
            .metric("steps_per_sec", CELLS as f64 / secs);
        if short == "nested_on" {
            record = record.metric("speedup_vs_nonested", off / secs);
        }
        sink.push(record);
    }
}

/// A small CNN whose first-layer per-example weight-gradient GEMM
/// (`(C_out, P·Q, C_in·R·S) = (16, 196, 72)`) routes through the
/// blocked kernel, so the implicit lowering sits on the measured path.
fn conv_step_net(rng: &mut DivaRng) -> Network {
    Network::new(vec![
        Layer::conv2d(8, 16, 3, 1, 1, 14, 14, rng),
        Layer::relu(),
        Layer::max_pool2d(2),
        Layer::flatten(),
        Layer::dense(16 * 7 * 7, 10, true, rng),
    ])
}

/// Full DP-SGD(R) training steps on the CNN at batch 32 — the `conv
/// dp-step` rows of `BENCH_perf.json`.
fn bench_conv_dp_step(h: &mut Harness, sink: &mut PerfSink) {
    const B: usize = 32;
    let label = "conv_dpsgdr_step_b32";
    let mut rng = DivaRng::seed_from_u64(14);
    let mut net = conv_step_net(&mut rng);
    let x = Tensor::uniform(&[B, 8, 14, 14], -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..B).map(|i| i % 10).collect();
    let config = DpSgdConfig {
        algorithm: TrainingAlgorithm::DpSgdReweighted,
        clip_norm: 1.0,
        noise_multiplier: 1.1,
        learning_rate: 0.05,
    };

    for (short, backend) in row_backends() {
        let trainer = DpTrainer::builder().config(config).backend(backend).build();
        h.bench(&format!("{label}/{short}"), || {
            trainer
                .step(&mut net, black_box(&x), &labels, &mut rng)
                .mean_loss
        });
    }

    let scalar = h.get(&format!("{label}/scalar")).unwrap().secs_per_iter;
    for (short, backend) in [
        ("scalar", "scalar"),
        ("blocked_serial", "serial"),
        ("blocked_parallel", "parallel"),
    ] {
        let secs = h.get(&format!("{label}/{short}")).unwrap().secs_per_iter;
        sink.push(
            PerfRecord::new(label)
                .tag("backend", backend)
                .tag("algorithm", "DP-SGD(R)")
                .metric("ms", secs * 1e3)
                .metric("steps_per_sec", 1.0 / secs)
                .metric("speedup_vs_scalar", scalar / secs),
        );
    }
}

/// One example's pre-fusion `NormOnly` contribution: slice, re-lower with
/// `im2col` (inside `conv2d_backward_weight`), take weight + bias norms.
/// Shared by the timed naive closure and the divergence sanity check so
/// the published speedup and the checked semantics cannot drift apart.
fn naive_example_norm(x: &Tensor, gy: &Tensor, geom: &Conv2dGeom, i: usize) -> f64 {
    let xi = slice_example(x, i);
    let gi = slice_example(gy, i);
    let gw = conv2d_backward_weight(&xi, &gi, geom);
    let dims = gi.shape().dims().to_vec();
    let (c, p, q) = (dims[1], dims[2], dims[3]);
    let gb: Vec<f32> = (0..c)
        .map(|ci| gi.data()[ci * p * q..(ci + 1) * p * q].iter().sum())
        .collect();
    gw.squared_norm() + sq_norm(&gb)
}

/// DP-SGD(R)'s *first* backward (the `NormOnly` pass) on a first-layer
/// convolution at batch 32: the fused implicit-lowering path versus the naive
/// per-example `im2col` path it replaced.
///
/// The naive side reproduces the pre-fusion semantics exactly: derive the
/// (dead) input gradient — the pre-fusion network always did — through the
/// unfused whole-batch lowering (`nchw_to_rows`, one GEMM, `col2im`), then,
/// per example, slice the batch, re-lower the example with `im2col` inside
/// `conv2d_backward_weight`, and take norms. The fused side is the current
/// layer path: per-example GEMMs that read each example's lowered input in
/// place from the input kept in the forward, packing only its output
/// gradient, dead input gradient skipped. Each iteration re-runs the pass
/// on one forward cache, and, as in a training step, every per-example
/// GEMM packs the panels it reads: no iteration reuses an earlier one's
/// packing.
fn bench_conv_first_backward(h: &mut Harness, sink: &mut PerfSink) {
    const B: usize = 32;
    let label = "conv_dpsgdr_first_backward_b32";
    let geom = Conv2dGeom::new(8, 16, 3, 1, 1, 14, 14);
    let mut rng = DivaRng::seed_from_u64(15);
    let layer = Conv2dLayer::new(8, 16, 3, 1, 1, 14, 14, &mut rng);
    let x = Tensor::uniform(&[B, 8, 14, 14], -1.0, 1.0, &mut rng);
    let (y, cache) = layer.forward(&x);
    let gy = Tensor::uniform(y.shape().dims(), -1.0, 1.0, &mut rng);
    let w2d = layer.params()[0].clone().reshape(&[16, geom.patch_len()]);

    let safe = Backend::auto().with_kernel(Kernel::Safe);
    h.bench(&format!("{label}/naive"), || {
        safe.install(|| {
            let gy_rows = nchw_to_rows(black_box(&gy), &geom);
            let gx = col2im(&matmul(&gy_rows, &w2d), &geom, B);
            let norms = parallel::par_map(B, |i| naive_example_norm(&x, &gy, &geom, i));
            (gx, norms)
        })
    });
    h.bench(&format!("{label}/fused"), || {
        safe.install(|| layer.backward_opt(&cache, black_box(&gy), GradMode::NormOnly, false))
    });

    // Sanity: both paths agree on the norms (bit parity is pinned by the
    // dedicated test suite; here we just refuse to publish numbers for
    // diverging computations).
    let fused = safe.install(|| layer.backward_opt(&cache, &gy, GradMode::NormOnly, false));
    let ParamGrads::SqNorms(fused_norms) = fused.grads else {
        panic!("NormOnly must yield norms");
    };
    let naive_norms =
        safe.install(|| parallel::par_map(B, |i| naive_example_norm(&x, &gy, &geom, i)));
    assert_eq!(
        fused_norms, naive_norms,
        "fused/naive first-backward diverged"
    );

    let naive = h.get(&format!("{label}/naive")).unwrap().secs_per_iter;
    for short in ["naive", "fused"] {
        let secs = h.get(&format!("{label}/{short}")).unwrap().secs_per_iter;
        sink.push(
            PerfRecord::new(label)
                .tag("backend", short)
                .tag("algorithm", "DP-SGD(R)")
                .metric("ms", secs * 1e3)
                .metric("speedup_vs_naive", naive / secs),
        );
    }
}

/// Accounting throughput: ε for a schedule of checkpoint step counts under
/// both accountants — the naive path (one full `event_epsilon` query per
/// count, each recomposing from scratch) versus the vectorized
/// `batch_epsilons` (one composition walk, binary-power cache, running
/// prefix across the sorted counts). The `dp_eps_throughput_*` rows this
/// emits are gated by `bench_regress`, so a change that destroys the
/// prefix-reuse win (or quietly routes the batch API through the naive
/// loop) fails CI.
fn bench_eps_throughput(h: &mut Harness, sink: &mut PerfSink) {
    // The MNIST configuration the golden tests pin (q = 600/60000).
    const Q: f64 = 0.01;
    const SIGMA: f64 = 1.0;
    const DELTA: f64 = 1e-5;
    let counts: Vec<u64> = (1..=16).map(|i| i * 250).collect();
    let step = DpEvent::poisson_sampled(Q, DpEvent::gaussian(SIGMA));

    for kind in [AccountantKind::Rdp, AccountantKind::Pld] {
        let label = format!("dp_eps_throughput_{}", kind.label());

        // Refuse to publish a speedup for diverging computations: the two
        // paths must agree on every ε before their times are compared
        // (loose tolerance — the PLD sides take different truncation
        // paths; see the batch tests for the tight contracts).
        let naive_eps: Vec<f64> = counts
            .iter()
            .map(|&t| event_epsilon(kind, &DpEvent::dp_sgd(Q, SIGMA, t), DELTA).unwrap())
            .collect();
        let batch_eps = batch_epsilons(kind, &step, &counts, DELTA).unwrap();
        for (i, (n, b)) in naive_eps.iter().zip(&batch_eps).enumerate() {
            assert!(
                (n - b).abs() <= 1e-3 * n.max(1.0),
                "{label}: naive/batch diverged at {} steps: {n} vs {b}",
                counts[i]
            );
        }

        h.bench(&format!("{label}/naive"), || {
            counts
                .iter()
                .map(|&t| {
                    event_epsilon(kind, &DpEvent::dp_sgd(Q, SIGMA, black_box(t)), DELTA).unwrap()
                })
                .collect::<Vec<f64>>()
        });
        h.bench(&format!("{label}/batch"), || {
            batch_epsilons(kind, black_box(&step), &counts, DELTA).unwrap()
        });

        let naive = h.get(&format!("{label}/naive")).unwrap().secs_per_iter;
        for short in ["naive", "batch"] {
            let secs = h.get(&format!("{label}/{short}")).unwrap().secs_per_iter;
            sink.push(
                PerfRecord::new(&label)
                    .tag("backend", short)
                    .tag("accountant", kind.label())
                    .metric("ms", secs * 1e3)
                    .metric("eps_per_sec", counts.len() as f64 / secs)
                    .metric("speedup_vs_naive", naive / secs),
            );
        }
    }
}

fn main() {
    let mut h = Harness::new("compute_backend");
    let mut sink = PerfSink::new();
    sink.push(
        PerfRecord::new("host")
            .tag("backend", "info")
            .metric("threads", parallel::max_threads() as f64),
    );
    bench_matmul(&mut h, &mut sink);
    bench_conv(&mut h, &mut sink);
    bench_dp_step(&mut h, &mut sink);
    bench_nested_step(&mut h, &mut sink);
    bench_conv_dp_step(&mut h, &mut sink);
    bench_conv_first_backward(&mut h, &mut sink);
    bench_eps_throughput(&mut h, &mut sink);
    match sink.write(None) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_perf.json: {e}"),
    }
}

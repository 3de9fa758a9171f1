//! `train_dpsgd` and `train_dpsgdr`: seeded DP training of `mnist_cnn`.
//!
//! The untraced mode times `DpTrainer::step`. The traced mode alternates
//! it with the same step decomposed into the crates' public calls
//! (per-layer forward and backward, `per_example_sq_norms`,
//! `clip_factors`, `weighted_reduce`, `add_noise_to_grads`,
//! `apply_update`), each timed from the outside, on the same model and
//! noise stream. The decomposition is checked to leave the parameters
//! bitwise equal to `DpTrainer::step`, or its numbers are refused.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use diva_dp::{
    answer_epsilon_query, clip_factors, AccountantKind, DpTrainer, EpsilonQuery, GaussianMechanism,
    TrainingAlgorithm,
};
use diva_nn::{GradMode, LayerCache, Network, NetworkGrads, ParamGrads};
use diva_tensor::{parallel, softmax_cross_entropy, Backend, DivaRng, Tensor};

use crate::inputs::{self, BATCH, BATCHES, NAMED_LAYERS};
use crate::stats::{median, Outcome, PhaseBreakdown, Tally, PHASES};
use crate::{ms, peak_rss_mib, Check, Measured};

/// Compute-pool width of both training workloads.
pub const THREADS: usize = 2;
const CLIP_NORM: f64 = 1.0;
const NOISE_MULTIPLIER: f64 = 1.1;
const LEARNING_RATE: f32 = 0.05;
const DELTA: f64 = 1e-5;
/// Steps run during set-up, before anything is timed.
const WARMUP_STEPS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// In the traced mode, one reference SGD step per this many DP steps.
const SGD_EVERY: usize = 4;

fn make_trainer(algorithm: TrainingAlgorithm) -> DpTrainer {
    DpTrainer::builder()
        .algorithm(algorithm)
        .clip_norm(CLIP_NORM)
        .noise_multiplier(NOISE_MULTIPLIER)
        .learning_rate(LEARNING_RATE)
        .backend(Backend::with_threads(THREADS))
        .build()
}

/// Everything a run trains on, built from the seed.
struct Setup {
    net: Network,
    batches: Vec<(Tensor, Vec<usize>)>,
    order: Vec<usize>,
    trainer: DpTrainer,
    rng: DivaRng,
    losses: Vec<f64>,
}

impl Setup {
    fn new(algorithm: TrainingAlgorithm, seed: u64) -> Self {
        let data = inputs::dataset(seed);
        let batches = (0..BATCHES).map(|i| data.batch(i * BATCH, BATCH)).collect();
        let mut setup = Self {
            net: inputs::mnist_cnn(seed),
            batches,
            order: inputs::batch_order(seed),
            trainer: make_trainer(algorithm),
            rng: inputs::noise_rng(seed),
            losses: Vec::new(),
        };
        for _ in 0..WARMUP_STEPS {
            let (x, labels) = setup.next_batch();
            let loss = setup
                .trainer
                .step(&mut setup.net, &x, &labels, &mut setup.rng)
                .mean_loss;
            setup.losses.push(loss);
        }
        setup
    }

    /// The batch of the next step: the seeded order, cycled.
    fn next_batch(&self) -> (Tensor, Vec<usize>) {
        self.batches[self.order[self.losses.len() % BATCHES]].clone()
    }
}

/// Which backward pass a layer span belongs to.
#[derive(Clone, Copy)]
enum Pass {
    Fwd = 0,
    /// The first backward: `PerExample` (DP-SGD) or `NormOnly` (DP-SGD(R)).
    Bwd = 1,
    /// DP-SGD(R)'s reweighted per-batch backward.
    Bwd2 = 2,
}

/// Span totals of the traced steps.
#[derive(Default)]
struct Recorder {
    phase_ms: [f64; PHASES.len()],
    layer_ms: [[f64; 3]; NAMED_LAYERS.len()],
    other_ms: f64,
    step_ms: Vec<f64>,
    steals: u64,
    inline_runs: u64,
}

impl Recorder {
    fn layer(&mut self, idx: usize, pass: Pass, since: Instant) {
        let t = ms(since);
        match NAMED_LAYERS.iter().position(|&(i, _)| i == idx) {
            Some(slot) => self.layer_ms[slot][pass as usize] += t,
            None => self.other_ms += t,
        }
    }

    /// Runs `f` as phase `PHASES[phase]`.
    fn phase<R>(&mut self, phase: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let t = Instant::now();
        let out = f(self);
        self.phase_ms[phase] += ms(t);
        out
    }
}

const FWD: usize = 0;
const BWD_PER_EXAMPLE: usize = 1;
const GRAD_NORM: usize = 2;
const GRAD_CLIP: usize = 3;
const REDUCE: usize = 4;
const BWD_PER_BATCH: usize = 5;
const NOISE: usize = 6;
const UPDATE: usize = 7;

fn forward_layers(net: &Network, x: &Tensor, rec: &mut Recorder) -> (Tensor, Vec<LayerCache>) {
    let mut caches = Vec::with_capacity(net.layers().len());
    let mut cur = x.clone();
    for (idx, layer) in net.layers().iter().enumerate() {
        let t = Instant::now();
        let (y, cache) = layer.forward(&cur);
        rec.layer(idx, Pass::Fwd, t);
        caches.push(cache);
        cur = y;
    }
    (cur, caches)
}

/// `Network::backward`, one timed `Layer::backward_opt` at a time.
fn backward_layers(
    net: &Network,
    caches: &[LayerCache],
    grad_loss: &Tensor,
    mode: GradMode,
    pass: Pass,
    rec: &mut Recorder,
) -> NetworkGrads {
    let mut grads = vec![ParamGrads::None; net.layers().len()];
    let mut grad = grad_loss.clone();
    for (idx, (layer, cache)) in net.layers().iter().zip(caches).enumerate().rev() {
        let t = Instant::now();
        let out = layer.backward_opt(cache, &grad, mode, idx > 0);
        rec.layer(idx, pass, t);
        grads[idx] = out.grads;
        if idx > 0 {
            grad = out
                .grad_input
                .expect("non-first layers derive an input gradient");
        }
    }
    NetworkGrads { layers: grads }
}

/// One `DpTrainer::step` as a sequence of timed public calls. Returns the
/// mean loss.
fn traced_step(
    algorithm: TrainingAlgorithm,
    net: &mut Network,
    (x, labels): &(Tensor, Vec<usize>),
    rng: &mut DivaRng,
    rec: &mut Recorder,
) -> f64 {
    let step = Instant::now();
    let pool = parallel::pool_stats();
    let (mut grads, loss) = Backend::with_threads(THREADS).install(|| {
        let (logits, caches, loss) = rec.phase(FWD, |rec| {
            let (logits, caches) = forward_layers(net, x, rec);
            let loss = softmax_cross_entropy(&logits, labels);
            (logits, caches, loss)
        });
        let grad = &loss.grad_logits;
        let mode = match algorithm {
            TrainingAlgorithm::DpSgd => GradMode::PerExample,
            _ => GradMode::NormOnly,
        };
        let first = rec.phase(BWD_PER_EXAMPLE, |rec| {
            backward_layers(net, &caches, grad, mode, Pass::Bwd, rec)
        });
        let sq_norms = rec.phase(GRAD_NORM, |_| first.per_example_sq_norms());
        let clip = rec.phase(GRAD_CLIP, |_| clip_factors(&sq_norms, CLIP_NORM));
        let grads = if algorithm == TrainingAlgorithm::DpSgd {
            rec.phase(REDUCE, |_| first.weighted_reduce(&clip.factors))
        } else {
            rec.phase(BWD_PER_BATCH, |rec| {
                // `Network::backward_reweighted`: scale example i's loss
                // gradient by its clip factor, then one per-batch pass.
                let (_, f) = grad.dims2();
                let mut reweighted = grad.clone();
                for (row, &w) in reweighted.data_mut().chunks_mut(f).zip(&clip.factors) {
                    let w = w as f32;
                    for v in row {
                        *v *= w;
                    }
                }
                backward_layers(
                    net,
                    &caches,
                    &reweighted,
                    GradMode::PerBatch,
                    Pass::Bwd2,
                    rec,
                )
            })
        };
        drop((logits, caches, first));
        (grads, loss.mean_loss)
    });
    rec.phase(NOISE, |_| {
        GaussianMechanism::new(NOISE_MULTIPLIER, CLIP_NORM).add_noise_to_grads(&mut grads, rng)
    });
    rec.phase(UPDATE, |_| {
        let scale = 1.0 / x.shape().dim(0) as f32;
        for layer in &mut grads.layers {
            if let ParamGrads::PerBatch(tensors) = layer {
                for t in tensors {
                    t.scale(scale);
                }
            }
        }
        net.apply_update(&grads, LEARNING_RATE);
    });
    // `DpTrainer::step` also reports the update norm; keep its cost.
    std::hint::black_box(
        grads
            .flatten_per_batch()
            .iter()
            .map(|&v| f64::from(v).powi(2))
            .sum::<f64>(),
    );
    let after = parallel::pool_stats();
    rec.steals += after.steals - pool.steals;
    rec.inline_runs += after.inline_runs - pool.inline_runs;
    rec.step_ms.push(ms(step));
    loss
}

fn params_bits(net: &Network) -> Vec<u32> {
    net.layers()
        .iter()
        .flat_map(|l| {
            l.params()
                .into_iter()
                .flat_map(|p| p.data().iter().map(|v| v.to_bits()))
        })
        .collect()
}

/// Runs one step under `catch_unwind`; a panic or a non-finite loss fails it.
fn guarded(f: impl FnOnce() -> f64) -> (Outcome, f64) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(loss) if loss.is_finite() => (Outcome::Ok, loss),
        Ok(loss) => (Outcome::Failed, loss),
        Err(_) => (Outcome::Failed, f64::NAN),
    }
}

/// Runs one training workload for `seconds` and checks its outputs.
pub fn run(algorithm: TrainingAlgorithm, seed: u64, seconds: f64, trace: bool) -> Measured {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = Setup::new(algorithm, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some(built);
    }
    let Setup {
        mut net,
        batches,
        order,
        trainer,
        mut rng,
        mut losses,
    } = setup.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut untraced_ms = Vec::new();
    let mut rec = Recorder::default();
    let mut sgd_ms = Vec::new();
    let sgd = make_trainer(TrainingAlgorithm::Sgd);
    let mut sgd_net = net.clone();
    let mut sgd_rng = DivaRng::seed_from_u64(seed);

    let spawned_before = parallel::pool_stats().spawned;
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let batch = &batches[order[losses.len() % BATCHES]];
        let traced = trace && i % 2 == 1;
        let t = Instant::now();
        let (outcome, loss) = if traced {
            guarded(|| traced_step(algorithm, &mut net, batch, &mut rng, &mut rec))
        } else {
            guarded(|| {
                trainer
                    .step(&mut net, &batch.0, &batch.1, &mut rng)
                    .mean_loss
            })
        };
        if !traced {
            untraced_ms.push(ms(t));
        }
        tally.record(outcome);
        losses.push(loss);
        if trace && i.is_multiple_of(2 * SGD_EVERY) {
            let t = Instant::now();
            let (outcome, _) = guarded(|| {
                sgd.step(&mut sgd_net, &batch.0, &batch.1, &mut sgd_rng)
                    .mean_loss
            });
            sgd_ms.push(ms(t));
            tally.record(outcome);
        }
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let spawned = parallel::pool_stats().spawned - spawned_before;
    let rss = peak_rss_mib();

    let mut checks = Vec::new();
    // The decomposition must match `DpTrainer::step` bit for bit.
    let batch = &batches[order[losses.len() % BATCHES]];
    let (mut a, mut b) = (net.clone(), net.clone());
    let (mut ra, mut rb) = (rng.clone(), rng.clone());
    traced_step(algorithm, &mut a, batch, &mut ra, &mut Recorder::default());
    trainer.step(&mut b, &batch.0, &batch.1, &mut rb);
    let (bits_a, bits_b) = (params_bits(&a), params_bits(&b));
    let differing = bits_a.iter().zip(&bits_b).filter(|(x, y)| x != y).count();
    checks.push(Check::refusing(
        "traced step is bitwise DpTrainer::step",
        differing == 0 && bits_a.len() == bits_b.len(),
        format!("{differing} of {} parameters differ", bits_a.len()),
    ));

    let steps = losses.len() as u64;
    let first = losses[..BATCHES.min(losses.len())].iter().sum::<f64>() / BATCHES as f64;
    let last = losses[losses.len().saturating_sub(BATCHES)..]
        .iter()
        .sum::<f64>()
        / BATCHES as f64;
    checks.push(Check::new(
        "mean loss of the last epoch below the first",
        losses.len() >= 2 * BATCHES && last < first,
        format!("first epoch {first:.4}, last epoch {last:.4}, {steps} steps"),
    ));

    let gap = equivalence_gap(seed);
    checks.push(Check::new(
        "DP-SGD matches DP-SGD(R) within 1e-4",
        gap < 1e-4,
        format!("max |Δparam| {gap:e}"),
    ));

    let q = BATCH as f64 / (BATCH * BATCHES) as f64;
    let t = Instant::now();
    let spent = trainer.privacy_spent(q, steps, DELTA);
    let privacy_ms = ms(t);
    let (ok, detail) = match spent {
        Ok(s) => (
            s.epsilon.is_finite() && s.epsilon <= s.epsilon_rdp,
            format!(
                "PLD ε {:.4} vs RDP ε {:.4} after {steps} steps",
                s.epsilon, s.epsilon_rdp
            ),
        ),
        Err(e) => (false, e.to_string()),
    };
    checks.push(Check::new("privacy_spent: PLD ε ≤ RDP ε", ok, detail));

    let mut layer = BTreeMap::new();
    if trace {
        let n = rec.step_ms.len();
        let breakdown = PhaseBreakdown::from_sums(rec.phase_ms, rec.step_ms.iter().sum(), n);
        // A phase or pass this algorithm never enters is left out and
        // reads at the span floor.
        for (name, v) in PHASES.iter().zip(breakdown.phases_ms) {
            if v > 0.0 {
                layer.insert(format!("phase.{name}_ms"), v);
            }
        }
        layer.insert("phase.unattributed_ms".into(), breakdown.unattributed_ms);
        layer.insert("phase.step_ms".into(), breakdown.step_ms);
        for (slot, (_, name)) in NAMED_LAYERS.iter().enumerate() {
            for (pass, suffix) in ["fwd", "bwd", "bwd2"].iter().enumerate() {
                let total = rec.layer_ms[slot][pass];
                if total > 0.0 {
                    layer.insert(format!("nn.{name}.{suffix}_ms"), total / n as f64);
                }
            }
        }
        layer.insert("nn.other_ms".into(), rec.other_ms / n as f64);
        layer.insert("pool.steals_per_step".into(), rec.steals as f64 / n as f64);
        layer.insert(
            "pool.inline_runs_per_step".into(),
            rec.inline_runs as f64 / n as f64,
        );
        let sgd_p50 = median(&sgd_ms);
        layer.insert("ref.sgd_step_ms".into(), sgd_p50);
        layer.insert("ref.dp_overhead_x".into(), median(&untraced_ms) / sgd_p50);
        layer.insert("dp.privacy_spent_ms".into(), privacy_ms);
        for (kind, name) in [(AccountantKind::Pld, "pld"), (AccountantKind::Rdp, "rdp")] {
            let t = Instant::now();
            let answer = answer_epsilon_query(&EpsilonQuery {
                accountant: kind,
                sampling_rate: q,
                noise_multiplier: NOISE_MULTIPLIER,
                steps,
                delta: DELTA,
                step_counts: Vec::new(),
            });
            layer.insert(format!("dp.{name}_query_ms"), ms(t));
            tally.record(Outcome::from(answer.is_ok()));
        }
        layer.insert(
            "trace.overhead_ms".into(),
            median(&rec.step_ms) - median(&untraced_ms),
        );
        let share = breakdown.unattributed_ms / breakdown.step_ms;
        checks.push(Check::new(
            "phase.unattributed_ms under 10% of the traced step",
            share.abs() < 0.10,
            format!("{:.2}%", 100.0 * share),
        ));
    }
    layer.insert("pool.spawned".into(), spawned as f64);

    Measured {
        tally,
        checks,
        work_per_s: (BATCH * untraced_ms.len()) as f64 / wall_s,
        op_ms: untraced_ms,
        setup_s: median(&setup_s),
        peak_rss_mib: rss,
        layer,
    }
}

/// The largest parameter difference between one DP-SGD and one DP-SGD(R)
/// step from the seed's initial model, check batch and noise stream.
fn equivalence_gap(seed: u64) -> f32 {
    let data = inputs::dataset(seed);
    let (x, labels) = data.batch(inputs::batch_order(seed)[0] * BATCH, BATCH);
    let step = |algorithm| {
        let mut net = inputs::mnist_cnn(seed);
        make_trainer(algorithm).step(&mut net, &x, &labels, &mut inputs::noise_rng(seed));
        net
    };
    let (a, b) = (
        step(TrainingAlgorithm::DpSgd),
        step(TrainingAlgorithm::DpSgdReweighted),
    );
    a.layers()
        .iter()
        .zip(b.layers())
        .flat_map(|(la, lb)| {
            la.params()
                .into_iter()
                .zip(lb.params())
                .map(|(pa, pb)| pa.max_abs_diff(pb))
                .collect::<Vec<_>>()
        })
        .fold(0.0, f32::max)
}

//! Training-step drivers for SGD, DP-SGD and DP-SGD(R) — a faithful
//! implementation of the paper's Algorithm 1, plus one practitioner
//! extension: microbatch accumulation (large effective batches under
//! DP-SGD's memory limits, the workaround the paper's Section III-A
//! motivates).

use diva_nn::{GradMode, Network, NetworkGrads};
use diva_tensor::{softmax_cross_entropy, sq_norm, Backend, DivaRng, Tensor};

use crate::clip::{clip_factors, median, ClipSummary};
use crate::error::AccountError;
use crate::event::{event_epsilon, AccountantKind, DpEvent};
use crate::mechanism::GaussianMechanism;

/// The three training algorithms the paper characterizes (Section III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrainingAlgorithm {
    /// Non-private mini-batch SGD (paper Figure 2(a)).
    Sgd,
    /// Vanilla DP-SGD: derives, clips and reduces every per-example weight
    /// gradient (Algorithm 1, `DERIVE_DP_GRADIENTS`), a block of examples
    /// at a time (`Network::clipped_sum`), so at most one block of them is
    /// ever materialized.
    DpSgd,
    /// Reweighted DP-SGD(R): two backpropagation passes, per-example norms
    /// only (Algorithm 1, `DERIVE_REWEIGHTED_DP_GRADIENTS`).
    DpSgdReweighted,
}

impl TrainingAlgorithm {
    /// All three algorithms, in the paper's presentation order.
    pub const ALL: [TrainingAlgorithm; 3] = [
        TrainingAlgorithm::Sgd,
        TrainingAlgorithm::DpSgd,
        TrainingAlgorithm::DpSgdReweighted,
    ];

    /// The paper's display name for the algorithm.
    pub fn label(&self) -> &'static str {
        match self {
            TrainingAlgorithm::Sgd => "SGD",
            TrainingAlgorithm::DpSgd => "DP-SGD",
            TrainingAlgorithm::DpSgdReweighted => "DP-SGD(R)",
        }
    }
}

impl std::fmt::Display for TrainingAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Hyper-parameters for a [`DpTrainer`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DpSgdConfig {
    /// Which gradient-derivation algorithm to run.
    pub algorithm: TrainingAlgorithm,
    /// Max per-example gradient L2 norm `C` (ignored by plain SGD).
    pub clip_norm: f64,
    /// Noise multiplier `σ` (ignored by plain SGD).
    pub noise_multiplier: f64,
    /// SGD learning rate `η`.
    pub learning_rate: f32,
}

impl DpSgdConfig {
    /// Returns `true` when the configuration trains with privacy (DP-SGD or
    /// DP-SGD(R)).
    pub fn is_private(&self) -> bool {
        self.algorithm != TrainingAlgorithm::Sgd
    }
}

impl Default for DpSgdConfig {
    fn default() -> Self {
        Self {
            algorithm: TrainingAlgorithm::DpSgdReweighted,
            clip_norm: 1.0,
            noise_multiplier: 1.1,
            learning_rate: 0.1,
        }
    }
}

/// Diagnostics from one training step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Mean cross-entropy loss over the mini-batch.
    pub mean_loss: f64,
    /// Clipping statistics: one global bound `C` on each example's whole
    /// gradient (Algorithm 1 line 23); `None` for plain SGD.
    pub clip: Option<ClipSummary>,
    /// L2 norm of the final (averaged, noised) update direction.
    pub update_norm: f64,
}

/// The privacy cost of a training run, reported under both accountants.
///
/// `epsilon` (from the PLD accountant — near exact) is the number to
/// publish; `epsilon_rdp` is the classic moments-accountant bound, kept so
/// results remain comparable with the literature and with earlier releases
/// of this workspace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacySpent {
    /// ε under the PLD accountant (the tighter default).
    pub epsilon: f64,
    /// ε under the RDP (moments) accountant.
    pub epsilon_rdp: f64,
    /// The δ both ε values are reported at.
    pub delta: f64,
}

/// Builder for [`DpTrainer`]: hyper-parameters and compute backend in one
/// fluent chain.
///
/// # Example
///
/// ```
/// use diva_dp::{DpTrainer, TrainingAlgorithm};
/// use diva_tensor::Backend;
///
/// let trainer = DpTrainer::builder()
///     .algorithm(TrainingAlgorithm::DpSgd)
///     .clip_norm(0.5)
///     .noise_multiplier(1.3)
///     .learning_rate(0.2)
///     .backend(Backend::serial())
///     .build();
/// assert_eq!(trainer.config().clip_norm, 0.5);
/// assert_eq!(trainer.backend(), Backend::serial());
/// ```
#[derive(Clone, Debug)]
pub struct DpTrainerBuilder {
    config: DpSgdConfig,
    backend: Option<Backend>,
}

impl DpTrainerBuilder {
    /// Replaces the whole configuration at once.
    pub fn config(mut self, config: DpSgdConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the gradient-derivation algorithm.
    pub fn algorithm(mut self, algorithm: TrainingAlgorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Sets the max per-example gradient L2 norm `C`.
    pub fn clip_norm(mut self, clip_norm: f64) -> Self {
        self.config.clip_norm = clip_norm;
        self
    }

    /// Sets the noise multiplier `σ`.
    pub fn noise_multiplier(mut self, noise_multiplier: f64) -> Self {
        self.config.noise_multiplier = noise_multiplier;
        self
    }

    /// Sets the SGD learning rate `η`.
    pub fn learning_rate(mut self, learning_rate: f32) -> Self {
        self.config.learning_rate = learning_rate;
        self
    }

    /// Selects the compute backend (thread count and GEMM kernel) every
    /// step runs under: installed on the calling thread around the step's
    /// gradient and noise work, it travels with every pool task the step
    /// opens. Prewarms the shared keep-alive pool to that width at
    /// [`Self::build`] time. When not set, the trainer defaults to
    /// [`Backend::auto`] *without* prewarming — workers spawn lazily at the
    /// first parallel region.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Builds the trainer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is private and `clip_norm` /
    /// `noise_multiplier` are invalid.
    pub fn build(self) -> DpTrainer {
        if let Some(backend) = self.backend {
            backend.prewarm();
        }
        DpTrainer::assemble(self.config, self.backend.unwrap_or_default())
    }
}

/// A stateless training-step driver: owns the hyper-parameters, borrows the
/// network and RNG per step.
///
/// # Example
///
/// One private training step end to end (the README quick-start — the
/// README's own copy is also compiled as a doc-test via
/// `ReadmeDoctests` in `lib.rs`, so the two cannot drift):
///
/// ```
/// use diva_dp::{DpSgdConfig, DpTrainer, TrainingAlgorithm};
/// use diva_nn::{Layer, Network};
/// use diva_tensor::{DivaRng, Tensor};
///
/// let mut rng = DivaRng::seed_from_u64(0);
/// let mut net = Network::new(vec![
///     Layer::dense(4, 16, true, &mut rng),
///     Layer::relu(),
///     Layer::dense(16, 2, true, &mut rng),
/// ]);
/// let trainer = DpTrainer::new(DpSgdConfig {
///     algorithm: TrainingAlgorithm::DpSgdReweighted,
///     clip_norm: 1.0,
///     noise_multiplier: 1.1,
///     learning_rate: 0.1,
/// });
/// let x = Tensor::uniform(&[8, 4], -1.0, 1.0, &mut rng);
/// let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
/// let report = trainer.step(&mut net, &x, &labels, &mut rng);
/// assert!(report.mean_loss.is_finite());
/// assert_eq!(report.clip.unwrap().factors.len(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct DpTrainer {
    config: DpSgdConfig,
    mechanism: GaussianMechanism,
    backend: Backend,
}

impl DpTrainer {
    /// Starts a [`DpTrainerBuilder`] with the default configuration
    /// ([`DpSgdConfig::default`], auto backend).
    pub fn builder() -> DpTrainerBuilder {
        DpTrainerBuilder {
            config: DpSgdConfig::default(),
            backend: None,
        }
    }

    /// Creates a trainer on the auto backend.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is private and `clip_norm` or
    /// `noise_multiplier` are invalid.
    pub fn new(config: DpSgdConfig) -> Self {
        Self::assemble(config, Backend::auto())
    }

    /// The one construction path behind [`Self::new`] and
    /// [`DpTrainerBuilder::build`].
    fn assemble(config: DpSgdConfig, backend: Backend) -> Self {
        let mechanism = if config.is_private() {
            GaussianMechanism::new(config.noise_multiplier, config.clip_norm)
        } else {
            // Unused for SGD; any valid mechanism will do.
            GaussianMechanism::new(0.0, 1.0)
        };
        // No prewarm here: the default backend is full-width auto, and
        // prewarming it would park a core-count of workers behind a
        // process that only ever runs narrower. `DpTrainerBuilder::backend`
        // prewarms the width actually chosen; a trainer left on auto
        // spawns workers lazily at its first parallel region.
        Self {
            config,
            mechanism,
            backend,
        }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &DpSgdConfig {
        &self.config
    }

    /// The compute backend steps execute under.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The privacy spent by `steps` steps of this trainer at Poisson
    /// sampling rate `sampling_rate`, reported at `delta` under both the
    /// PLD (tight, published as `epsilon`) and RDP accountants.
    ///
    /// # Errors
    ///
    /// [`AccountError::InvalidParameter`] if the trainer is non-private
    /// (plain SGD spends no budget but has no meaningful ε to report), has
    /// a zero noise multiplier, or the arguments are out of domain.
    pub fn privacy_spent(
        &self,
        sampling_rate: f64,
        steps: u64,
        delta: f64,
    ) -> Result<PrivacySpent, AccountError> {
        if !self.config.is_private() {
            return Err(AccountError::InvalidParameter(
                "plain SGD has no privacy guarantee to account".into(),
            ));
        }
        let event = DpEvent::dp_sgd(sampling_rate, self.config.noise_multiplier, steps);
        Ok(PrivacySpent {
            epsilon: event_epsilon(AccountantKind::Pld, &event, delta)?,
            epsilon_rdp: event_epsilon(AccountantKind::Rdp, &event, delta)?,
            delta,
        })
    }

    /// Runs one training step on a classification mini-batch, updating the
    /// network in place.
    ///
    /// `x` is the batched input (first dimension = batch), `labels` the
    /// integer class targets. Returns step diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if batch dimensions are inconsistent.
    pub fn step(
        &self,
        net: &mut Network,
        x: &Tensor,
        labels: &[usize],
        rng: &mut DivaRng,
    ) -> StepReport {
        let b = x.shape().dim(0);
        self.backend.install(|| {
            let (mut grads, loss, clip) = self.clipped_sum(net, x, labels);
            self.add_noise(&mut grads, rng);
            // Average over the mini-batch: Algorithm 1 line 24 / 41
            // multiplies the (noised) sum by 1/B; for SGD this is the usual
            // mean gradient.
            scale_grads(&mut grads, 1.0 / b as f32);
            let update_norm = grad_norm(&grads);
            net.apply_update(&grads, self.config.learning_rate);
            StepReport {
                mean_loss: loss,
                clip,
                update_norm,
            }
        })
    }

    /// Runs one *logical* training step over several microbatches
    /// (gradient accumulation): each microbatch contributes its clipped
    /// per-example gradient sum; noise is added once, to the total.
    ///
    /// This is how practitioners reach SGD-scale effective batches under
    /// DP-SGD's memory limits (the paper's Section III-A problem): privacy
    /// and the update scale with the *total* batch, activation memory with
    /// the *microbatch*. Per-example gradient memory does not need it:
    /// [`Self::step`] already bounds that by one block of examples. So a
    /// microbatch saves activation memory only. Equivalent to
    /// [`Self::step`] on the concatenated batch (clipping is per-example,
    /// so splitting is exact).
    ///
    /// # Panics
    ///
    /// Panics if `microbatches` is empty or any batch is malformed.
    pub fn step_accumulated(
        &self,
        net: &mut Network,
        microbatches: &[(Tensor, Vec<usize>)],
        rng: &mut DivaRng,
    ) -> StepReport {
        assert!(!microbatches.is_empty(), "need at least one microbatch");
        let mut total_examples = 0usize;
        let mut acc: Option<NetworkGrads> = None;
        let mut loss_weighted = 0.0f64;
        let mut clip_acc: Option<ClipSummary> = None;
        for (x, labels) in microbatches {
            let b = x.shape().dim(0);
            total_examples += b;
            let (grads, loss, clip) = self.backend.install(|| self.clipped_sum(net, x, labels));
            loss_weighted += loss * b as f64;
            match &mut acc {
                None => acc = Some(grads),
                Some(a) => a.accumulate(&grads),
            }
            clip_acc = merge_clip(clip_acc, clip);
        }
        let mut grads = acc.expect("at least one microbatch");
        let update_norm = self.backend.install(|| {
            self.add_noise(&mut grads, rng);
            scale_grads(&mut grads, 1.0 / total_examples as f32);
            let update_norm = grad_norm(&grads);
            net.apply_update(&grads, self.config.learning_rate);
            update_norm
        });
        StepReport {
            mean_loss: loss_weighted / total_examples as f64,
            clip: clip_acc,
            update_norm,
        }
    }

    /// Algorithm 1 line 24's Gaussian noise, for private algorithms only.
    fn add_noise(&self, grads: &mut NetworkGrads, rng: &mut DivaRng) {
        if self.config.is_private() {
            self.mechanism.add_noise_to_grads(grads, rng);
        }
    }

    /// Computes the (clipped, for private algorithms) *sum* of per-example
    /// gradients for one mini-batch, without noise, averaging, or updates.
    fn clipped_sum(
        &self,
        net: &Network,
        x: &Tensor,
        labels: &[usize],
    ) -> (NetworkGrads, f64, Option<ClipSummary>) {
        let b = x.shape().dim(0);
        assert_eq!(b, labels.len(), "batch size mismatch with labels");
        assert!(b > 0, "empty mini-batch");

        let (logits, caches) = net.forward(x);
        let loss = softmax_cross_entropy(&logits, labels);

        match self.config.algorithm {
            TrainingAlgorithm::Sgd => {
                let g = net.backward(&caches, &loss.grad_logits, GradMode::PerBatch);
                (g, loss.mean_loss, None)
            }
            TrainingAlgorithm::DpSgd => {
                // Algorithm 1 lines 16–25: every example's gradient is
                // written, normed, clipped and reduced, a block of examples
                // at a time.
                let clip_norm = self.config.clip_norm;
                let (reduced, sq_norms) = net.clipped_sum(&caches, &loss.grad_logits, |sq| {
                    clip_factors(sq, clip_norm).factors
                });
                let summary = clip_factors(&sq_norms, clip_norm);
                (reduced, loss.mean_loss, Some(summary))
            }
            TrainingAlgorithm::DpSgdReweighted => {
                // Algorithm 1 lines 28–42: first pass derives norms only...
                let norm_pass = net.backward(&caches, &loss.grad_logits, GradMode::NormOnly);
                let summary =
                    clip_factors(&norm_pass.per_example_sq_norms(), self.config.clip_norm);
                // ...then the loss gradient is reweighted per example and a
                // second per-batch pass yields the clipped, reduced gradient
                // in one shot (clipping fused into backprop — the key to
                // DP-SGD(R)'s memory savings and fewer post-processing ops).
                // Both passes run against the same `caches`: each conv
                // layer's input (diva_tensor::ConvInput), kept in the
                // forward, is read by both passes, and neither pass derives
                // the first layer's dead input gradient.
                let g = net.backward_reweighted(&caches, &loss.grad_logits, &summary.factors);
                (g, loss.mean_loss, Some(summary))
            }
        }
    }
}

fn scale_grads(grads: &mut NetworkGrads, s: f32) {
    for layer in &mut grads.layers {
        if let diva_nn::ParamGrads::PerBatch(tensors) = layer {
            for t in tensors {
                t.scale(s);
            }
        }
    }
}

/// The L2 norm of the averaged update, for [`StepReport::update_norm`]:
/// one serial `sq_norm` per tensor, which only this report reads.
fn grad_norm(grads: &NetworkGrads) -> f64 {
    let mut sum = 0.0;
    for layer in &grads.layers {
        if let diva_nn::ParamGrads::PerBatch(tensors) = layer {
            sum += tensors.iter().map(|t| sq_norm(t.data())).sum::<f64>();
        }
    }
    sum.sqrt()
}

fn merge_clip(a: Option<ClipSummary>, b: Option<ClipSummary>) -> Option<ClipSummary> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(mut a), Some(b)) => {
            a.factors.extend(b.factors);
            a.norms.extend(b.norms);
            a.clipped_count += b.clipped_count;
            a.median_norm = median(&a.norms);
            Some(a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_nn::Layer;

    fn mlp(rng: &mut DivaRng) -> Network {
        Network::new(vec![
            Layer::dense(4, 8, true, rng),
            Layer::relu(),
            Layer::dense(8, 2, true, rng),
        ])
    }

    fn batch(rng: &mut DivaRng, b: usize) -> (Tensor, Vec<usize>) {
        let x = Tensor::uniform(&[b, 4], -1.0, 1.0, rng);
        let labels = (0..b).map(|i| i % 2).collect();
        (x, labels)
    }

    /// The paper's central algorithmic identity: with the same noise draw,
    /// DP-SGD and DP-SGD(R) produce the same model update.
    #[test]
    fn dpsgd_and_reweighted_are_equivalent() {
        let mut rng = DivaRng::seed_from_u64(100);
        let net0 = mlp(&mut rng);
        let (x, labels) = batch(&mut rng, 6);

        let run = |alg: TrainingAlgorithm| {
            let mut net = net0.clone();
            let trainer = DpTrainer::new(DpSgdConfig {
                algorithm: alg,
                clip_norm: 0.5,
                noise_multiplier: 1.3,
                learning_rate: 0.2,
            });
            let mut step_rng = DivaRng::seed_from_u64(999);
            trainer.step(&mut net, &x, &labels, &mut step_rng);
            net
        };
        let a = run(TrainingAlgorithm::DpSgd);
        let b = run(TrainingAlgorithm::DpSgdReweighted);
        for (la, lb) in a.layers().iter().zip(b.layers()) {
            for (pa, pb) in la.params().iter().zip(lb.params()) {
                assert!(
                    pa.max_abs_diff(pb) < 1e-4,
                    "DP-SGD and DP-SGD(R) diverged: {}",
                    pa.max_abs_diff(pb)
                );
            }
        }
    }

    #[test]
    fn dpsgd_with_huge_clip_and_zero_noise_matches_sgd() {
        let mut rng = DivaRng::seed_from_u64(101);
        let net0 = mlp(&mut rng);
        let (x, labels) = batch(&mut rng, 4);
        let run = |alg: TrainingAlgorithm, clip: f64, sigma: f64| {
            let mut net = net0.clone();
            let trainer = DpTrainer::new(DpSgdConfig {
                algorithm: alg,
                clip_norm: clip,
                noise_multiplier: sigma,
                learning_rate: 0.1,
            });
            let mut step_rng = DivaRng::seed_from_u64(1);
            trainer.step(&mut net, &x, &labels, &mut step_rng);
            net
        };
        let sgd = run(TrainingAlgorithm::Sgd, 1.0, 0.0);
        let dp = run(TrainingAlgorithm::DpSgd, 1e9, 0.0);
        for (la, lb) in sgd.layers().iter().zip(dp.layers()) {
            for (pa, pb) in la.params().iter().zip(lb.params()) {
                assert!(pa.max_abs_diff(pb) < 1e-5);
            }
        }
    }

    #[test]
    fn clipping_report_is_populated_for_private_training() {
        let mut rng = DivaRng::seed_from_u64(102);
        let mut net = mlp(&mut rng);
        let (x, labels) = batch(&mut rng, 5);
        let trainer = DpTrainer::new(DpSgdConfig {
            algorithm: TrainingAlgorithm::DpSgdReweighted,
            clip_norm: 1e-3, // absurdly small: everything clips
            noise_multiplier: 0.0,
            learning_rate: 0.1,
        });
        let report = trainer.step(&mut net, &x, &labels, &mut rng);
        let clip = report.clip.expect("private step must report clipping");
        assert_eq!(clip.clipped_count, 5);
        assert!(clip.factors.iter().all(|&f| f < 1.0));
    }

    #[test]
    fn sgd_training_converges_on_separable_data() {
        let mut rng = DivaRng::seed_from_u64(103);
        let mut net = mlp(&mut rng);
        let trainer = DpTrainer::new(DpSgdConfig {
            algorithm: TrainingAlgorithm::Sgd,
            clip_norm: 1.0,
            noise_multiplier: 0.0,
            learning_rate: 0.5,
        });
        // Linearly separable blobs along the first coordinate.
        let mut losses = Vec::new();
        for _ in 0..60 {
            let b = 16;
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for i in 0..b {
                let class = i % 2;
                let center = if class == 0 { -1.0 } else { 1.0 };
                for d in 0..4 {
                    let jitter = rng.uniform(-0.2, 0.2);
                    data.push(if d == 0 { center + jitter } else { jitter });
                }
                labels.push(class);
            }
            let x = Tensor::from_vec(data, &[b, 4]);
            losses.push(trainer.step(&mut net, &x, &labels, &mut rng).mean_loss);
        }
        assert!(
            losses.last().unwrap() < &0.1,
            "final loss {:?}",
            losses.last()
        );
    }

    #[test]
    fn dp_training_converges_with_modest_noise() {
        let mut rng = DivaRng::seed_from_u64(104);
        let mut net = mlp(&mut rng);
        let trainer = DpTrainer::new(DpSgdConfig {
            algorithm: TrainingAlgorithm::DpSgdReweighted,
            clip_norm: 1.0,
            noise_multiplier: 0.5,
            learning_rate: 0.5,
        });
        let mut final_loss = f64::INFINITY;
        for _ in 0..80 {
            let b = 32;
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for i in 0..b {
                let class = i % 2;
                let center = if class == 0 { -1.0 } else { 1.0 };
                for d in 0..4 {
                    let jitter = rng.uniform(-0.2, 0.2);
                    data.push(if d == 0 { center + jitter } else { jitter });
                }
                labels.push(class);
            }
            let x = Tensor::from_vec(data, &[b, 4]);
            final_loss = trainer.step(&mut net, &x, &labels, &mut rng).mean_loss;
        }
        assert!(
            final_loss < 0.4,
            "DP training failed to converge: {final_loss}"
        );
    }

    /// Microbatch accumulation must equal one big step on the concatenated
    /// batch (clipping is per-example, so the split is exact; the noise is
    /// drawn once either way).
    #[test]
    fn accumulated_step_equals_concatenated_step() {
        let mut rng = DivaRng::seed_from_u64(105);
        let net0 = mlp(&mut rng);
        let (x1, l1) = batch(&mut rng, 3);
        let (x2, l2) = batch(&mut rng, 5);
        // Concatenate.
        let mut data = x1.data().to_vec();
        data.extend_from_slice(x2.data());
        let x_all = Tensor::from_vec(data, &[8, 4]);
        let mut l_all = l1.clone();
        l_all.extend_from_slice(&l2);

        for algorithm in [TrainingAlgorithm::DpSgd, TrainingAlgorithm::DpSgdReweighted] {
            let trainer = DpTrainer::new(DpSgdConfig {
                algorithm,
                clip_norm: 0.7,
                noise_multiplier: 1.0,
                learning_rate: 0.2,
            });
            let mut net_a = net0.clone();
            let mut rng_a = DivaRng::seed_from_u64(55);
            let report_a = trainer.step(&mut net_a, &x_all, &l_all, &mut rng_a);

            let mut net_b = net0.clone();
            let mut rng_b = DivaRng::seed_from_u64(55);
            let report_b = trainer.step_accumulated(
                &mut net_b,
                &[(x1.clone(), l1.clone()), (x2.clone(), l2.clone())],
                &mut rng_b,
            );

            for (la, lb) in net_a.layers().iter().zip(net_b.layers()) {
                for (pa, pb) in la.params().iter().zip(lb.params()) {
                    assert!(
                        pa.max_abs_diff(pb) < 1e-5,
                        "{algorithm:?}: accumulated step diverged: {}",
                        pa.max_abs_diff(pb)
                    );
                }
            }
            // Clipping is per-example, so the merged summary (factors,
            // norms, clipped count and the median over the union) is the
            // concatenated step's exactly; the loss is a differently
            // associated mean.
            assert!(report_a.clip.is_some(), "{algorithm:?}: no clip summary");
            assert_eq!(report_b.clip, report_a.clip, "{algorithm:?}: clip summary");
            assert!(
                (report_b.mean_loss - report_a.mean_loss).abs() < 1e-12,
                "{algorithm:?}: mean loss {} vs {}",
                report_b.mean_loss,
                report_a.mean_loss
            );
        }
    }

    /// A whole step — backward, clip-reduce and the counter-based noise —
    /// leaves the same parameter bits at every width. The first network's
    /// dense layer has 16,448 parameters noised in parallel chunks. The
    /// second runs every pool-split kernel of the step: two convolutions
    /// (so `col2im` runs), max pooling, a conv2 per-batch weight gradient
    /// (16×2800×72) and a dense layer (7×1600×192) past the column-split
    /// floor, and a batch of 7 that splits unevenly. The third is the
    /// benchmark CNN at batch 32: its first layer's weight gradients run
    /// two K panels per example (784 positions), and the per-batch one
    /// splits its nine patch columns 6:3 over the pool.
    #[test]
    fn serial_and_parallel_steps_are_bitwise_equal() {
        let mut rng = DivaRng::seed_from_u64(108);
        let small = Network::new(vec![
            Layer::conv2d(1, 4, 3, 1, 1, 8, 8, &mut rng),
            Layer::relu(),
            Layer::flatten(),
            Layer::dense(256, 64, true, &mut rng),
            Layer::relu(),
            Layer::dense(64, 3, true, &mut rng),
        ]);
        let x_small = Tensor::uniform(&[12, 1, 8, 8], -1.0, 1.0, &mut rng);
        let skinny = Network::new(vec![
            Layer::conv2d(1, 8, 3, 1, 1, 20, 20, &mut rng),
            Layer::relu(),
            Layer::conv2d(8, 16, 3, 1, 1, 20, 20, &mut rng),
            Layer::relu(),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::dense(1600, 192, true, &mut rng),
            Layer::relu(),
            Layer::dense(192, 3, true, &mut rng),
        ]);
        let x_skinny = Tensor::uniform(&[7, 1, 20, 20], -1.0, 1.0, &mut rng);
        let mnist = Network::new(vec![
            Layer::conv2d(1, 16, 3, 1, 1, 28, 28, &mut rng),
            Layer::relu(),
            Layer::max_pool2d(2),
            Layer::conv2d(16, 32, 3, 1, 1, 14, 14, &mut rng),
            Layer::relu(),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::dense(1568, 256, true, &mut rng),
            Layer::relu(),
            Layer::dense(256, 10, true, &mut rng),
        ]);
        let x_mnist = Tensor::uniform(&[32, 1, 28, 28], -1.0, 1.0, &mut rng);
        let params_bits = |net: &Network| -> Vec<u32> {
            net.layers()
                .iter()
                .flat_map(|l| l.params())
                .flat_map(|p| p.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect()
        };
        for (name, net0, x) in [
            ("small", &small, &x_small),
            ("skinny", &skinny, &x_skinny),
            ("mnist", &mnist, &x_mnist),
        ] {
            let labels: Vec<usize> = (0..x.shape().dim(0)).map(|i| i % 3).collect();
            for algorithm in [
                TrainingAlgorithm::DpSgd,
                TrainingAlgorithm::DpSgdReweighted,
                TrainingAlgorithm::Sgd,
            ] {
                let step = |backend: Backend| {
                    let mut net = net0.clone();
                    DpTrainer::builder()
                        .algorithm(algorithm)
                        .clip_norm(0.5)
                        .noise_multiplier(1.1)
                        .backend(backend)
                        .build()
                        .step(&mut net, x, &labels, &mut DivaRng::seed_from_u64(9));
                    params_bits(&net)
                };
                let serial = step(Backend::serial());
                for threads in [2, 3] {
                    assert!(
                        serial == step(Backend::with_threads(threads)),
                        "{name}: {algorithm} step differs at {threads} threads"
                    );
                }
            }
        }
    }

    /// The trainer's privacy report routes through the accounting engine:
    /// PLD at or below RDP, both positive, and non-private configs refuse.
    #[test]
    fn privacy_spent_reports_both_accountants() {
        let trainer = DpTrainer::new(DpSgdConfig::default());
        let spent = trainer.privacy_spent(0.01, 500, 1e-5).unwrap();
        assert!(spent.epsilon > 0.0);
        assert!(
            spent.epsilon <= spent.epsilon_rdp,
            "pld {} vs rdp {}",
            spent.epsilon,
            spent.epsilon_rdp
        );
        assert_eq!(spent.delta, 1e-5);

        let sgd = DpTrainer::new(DpSgdConfig {
            algorithm: TrainingAlgorithm::Sgd,
            ..DpSgdConfig::default()
        });
        assert!(matches!(
            sgd.privacy_spent(0.01, 500, 1e-5),
            Err(crate::AccountError::InvalidParameter(_))
        ));
    }

    /// Builder defaults mirror `DpTrainer::new(DpSgdConfig::default())`.
    #[test]
    fn builder_defaults_match_new() {
        let a = DpTrainer::new(DpSgdConfig::default());
        let b = DpTrainer::builder().build();
        assert_eq!(a.config(), b.config());
        assert_eq!(a.backend(), b.backend());
    }
}

//! Privacy-loss-distribution (PLD) accounting with FFT composition.
//!
//! A PLD is the distribution of the privacy loss `L(x) = ln(P(x)/Q(x))`
//! for `x ~ P`, where `(P, Q)` is a dominating pair of output
//! distributions for the mechanism. Composition of mechanisms is addition
//! of independent losses — convolution of their PLDs — and both (ε, δ)
//! queries are expectations over the loss ([Sommer et al., PETS'19;
//! Koskela et al., AISTATS'20]):
//!
//! ```text
//! δ(ε) = Σ_{ℓ > ε} p(ℓ)·(1 − e^{ε−ℓ}) + m_∞
//! ```
//!
//! where `m_∞` is the probability that `Q` cannot cover `P` at all.
//!
//! # Discretization contract
//!
//! Losses live on the uniform grid `k·Δ` (`Δ =`
//! [`PldOptions::discretization`]); construction rounds each mechanism's
//! continuous loss **to the nearest** grid point, so per-step rounding is
//! zero-mean to first order and the error after `k` compositions grows
//! like `O(√k·Δ)` rather than the `O(k·Δ)` of ceiling rounding (the same
//! tradeoff the PRV accountant of Gopi et al., NeurIPS'21 makes). Tail
//! truncation *is* one-sided pessimistic: upper-tail mass moves into
//! `m_∞` (inflating δ), lower-tail mass moves up into the lowest kept
//! bucket. The result is a near-exact estimate — tight enough that the
//! property suite can assert `ε_PLD ≤ ε_RDP` across the whole grid — not
//! a certified upper bound at machine precision.
//!
//! Subsampled mechanisms are asymmetric: both adjacency directions
//! (add and remove) are tracked and every query takes the max, so the
//! reported (ε, δ) holds for both neighbor relations.
//!
//! Everything here is single-threaded and deterministic — accounting
//! inherits the workspace's thread-count bit-stability guarantee.

use diva_tensor::fft::convolve;

use crate::calibrate::norm_cdf;
use crate::error::AccountError;
use crate::event::{check_delta, check_epsilon, Accountant, DpEvent};

/// Hard cap on the number of grid buckets a composed PLD may hold; beyond
/// this the engine reports [`AccountError::GridOverflow`] instead of
/// allocating unboundedly.
const MAX_BINS: usize = 1 << 21;

/// Tuning knobs for PLD construction and composition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PldOptions {
    /// Grid spacing Δ of the discretized loss (default `1e-3`): ε error
    /// after `k` compositions is O(√k·Δ).
    pub discretization: f64,
    /// Probability mass truncated per tail per operation (default
    /// `1e-12`); truncation is pessimistic, adding at most this much to δ
    /// per composition. Keep well below the δ you plan to query.
    pub tail_mass: f64,
}

impl Default for PldOptions {
    fn default() -> Self {
        Self {
            discretization: 1e-3,
            tail_mass: 1e-12,
        }
    }
}

impl PldOptions {
    fn validate(&self) -> Result<(), AccountError> {
        if !(self.discretization.is_finite()
            && self.discretization > 0.0
            && self.discretization <= 1.0)
        {
            return Err(AccountError::InvalidParameter(format!(
                "discretization must be in (0, 1], got {}",
                self.discretization
            )));
        }
        if !(self.tail_mass.is_finite() && self.tail_mass > 0.0 && self.tail_mass < 1e-3) {
            return Err(AccountError::InvalidParameter(format!(
                "tail_mass must be in (0, 1e-3), got {}",
                self.tail_mass
            )));
        }
        Ok(())
    }

    /// The z-score whose upper Gaussian tail is safely below `tail_mass`
    /// (`Φc(z) ≤ ½e^{−z²/2}`; the +1 is slack for mixture weights).
    fn tail_z(&self) -> f64 {
        (2.0 * (1.0 / self.tail_mass).ln()).sqrt() + 1.0
    }
}

/// One direction of a discretized privacy-loss distribution: a PMF over
/// losses `(min_index + i)·Δ` plus the infinite-loss mass.
#[derive(Clone, Debug)]
pub struct Pld {
    grid: f64,
    min_index: i64,
    pmf: Vec<f64>,
    infinity_mass: f64,
}

impl Pld {
    /// The identity element of composition: all mass at loss 0.
    pub fn identity(grid: f64) -> Self {
        Self {
            grid,
            min_index: 0,
            pmf: vec![1.0],
            infinity_mass: 0.0,
        }
    }

    fn loss(&self, i: usize) -> f64 {
        (self.min_index + i as i64) as f64 * self.grid
    }

    /// The truncated infinite-loss mass (a floor on every δ this PLD can
    /// report).
    pub fn infinity_mass(&self) -> f64 {
        self.infinity_mass
    }

    /// The PLD of the Gaussian mechanism at sensitivity 1: the loss is
    /// itself Gaussian with mean `1/(2σ²)` and standard deviation `1/σ`
    /// (symmetric — one direction covers both adjacencies).
    ///
    /// # Errors
    ///
    /// Invalid σ or options.
    pub fn gaussian(noise_multiplier: f64, opts: &PldOptions) -> Result<Self, AccountError> {
        opts.validate()?;
        if !(noise_multiplier.is_finite() && noise_multiplier > 0.0) {
            return Err(AccountError::InvalidParameter(format!(
                "noise multiplier must be positive and finite, got {noise_multiplier}"
            )));
        }
        let mu = 1.0 / (2.0 * noise_multiplier * noise_multiplier);
        let s = 1.0 / noise_multiplier;
        let z = opts.tail_z();
        let delta_x = opts.discretization;
        let k_lo = ((mu - z * s) / delta_x).round() as i64;
        let k_hi = ((mu + z * s) / delta_x).round() as i64;
        let n = usize::try_from(k_hi - k_lo + 1).unwrap_or(usize::MAX);
        if n > MAX_BINS {
            return Err(AccountError::GridOverflow(format!(
                "Gaussian PLD needs {n} buckets at discretization {delta_x}"
            )));
        }
        let mut pmf = Vec::with_capacity(n);
        for k in k_lo..=k_hi {
            // Bucket k covers ((k−½)Δ, (k+½)Δ]; the lowest bucket absorbs
            // the whole lower tail (rounding those losses up: pessimistic).
            let hi_edge = norm_cdf(((k as f64 + 0.5) * delta_x - mu) / s);
            let lo_edge = if k == k_lo {
                0.0
            } else {
                norm_cdf(((k as f64 - 0.5) * delta_x - mu) / s)
            };
            pmf.push((hi_edge - lo_edge).max(0.0));
        }
        // Upper tail → infinity mass (pessimistic).
        let infinity_mass = 1.0 - norm_cdf(((k_hi as f64 + 0.5) * delta_x - mu) / s);
        let mut pld = Self {
            grid: delta_x,
            min_index: k_lo,
            pmf,
            infinity_mass: infinity_mass.max(0.0),
        };
        pld.trim_zeros();
        Ok(pld)
    }

    /// The add-direction PLD of the Poisson-subsampled Gaussian: upper
    /// distribution `P = (1−q)·N(0,σ²) + q·N(1,σ²)`, lower `Q = N(0,σ²)`.
    /// The loss `ln((1−q) + q·e^{(2x−1)/(2σ²)})` is increasing in `x` and
    /// unbounded above, so the upper tail lands in the infinity mass.
    ///
    /// # Errors
    ///
    /// Invalid q, σ or options.
    pub fn subsampled_gaussian_up(
        q: f64,
        noise_multiplier: f64,
        opts: &PldOptions,
    ) -> Result<Self, AccountError> {
        check_subsampled(q, noise_multiplier, opts)?;
        let sigma = noise_multiplier;
        let z = opts.tail_z();
        let delta_x = opts.discretization;
        // Mixture quantile bracket: mass below −zσ and above 1 + zσ under
        // P is each ≤ Φc(z) ≤ tail_mass.
        let x_lo = -z * sigma;
        let x_hi = 1.0 + z * sigma;
        let loss = |x: f64| (q * ((2.0 * x - 1.0) / (2.0 * sigma * sigma)).exp_m1()).ln_1p();
        // Inverse of the loss, −∞ for ℓ at/below the asymptote ln(1−q).
        let x_of = |l: f64| {
            let r = l.exp_m1() / q;
            if r <= -1.0 {
                f64::NEG_INFINITY
            } else {
                0.5 + sigma * sigma * r.ln_1p()
            }
        };
        let cdf = |x: f64| {
            if x == f64::NEG_INFINITY {
                0.0
            } else {
                (1.0 - q) * norm_cdf(x / sigma) + q * norm_cdf((x - 1.0) / sigma)
            }
        };
        let k_lo = (loss(x_lo) / delta_x).round() as i64;
        let k_hi = (loss(x_hi) / delta_x).round() as i64;
        let n = usize::try_from(k_hi - k_lo + 1).unwrap_or(usize::MAX);
        if n > MAX_BINS {
            return Err(AccountError::GridOverflow(format!(
                "subsampled-Gaussian PLD needs {n} buckets at discretization {delta_x}"
            )));
        }
        let mut pmf = Vec::with_capacity(n);
        for k in k_lo..=k_hi {
            let hi_edge = cdf(x_of((k as f64 + 0.5) * delta_x));
            let lo_edge = if k == k_lo {
                0.0
            } else {
                cdf(x_of((k as f64 - 0.5) * delta_x))
            };
            pmf.push((hi_edge - lo_edge).max(0.0));
        }
        let infinity_mass = (1.0 - cdf(x_of((k_hi as f64 + 0.5) * delta_x))).max(0.0);
        let mut pld = Self {
            grid: delta_x,
            min_index: k_lo,
            pmf,
            infinity_mass,
        };
        pld.trim_zeros();
        Ok(pld)
    }

    /// The remove-direction PLD of the Poisson-subsampled Gaussian: upper
    /// `Q = N(0,σ²)`, lower `P` the mixture. The loss
    /// `−ln((1−q) + q·e^{(2x−1)/(2σ²)})` is decreasing in `x` and bounded
    /// above by `−ln(1−q)`, so no infinity mass arises.
    ///
    /// # Errors
    ///
    /// Invalid q, σ or options.
    pub fn subsampled_gaussian_down(
        q: f64,
        noise_multiplier: f64,
        opts: &PldOptions,
    ) -> Result<Self, AccountError> {
        check_subsampled(q, noise_multiplier, opts)?;
        let sigma = noise_multiplier;
        let z = opts.tail_z();
        let delta_x = opts.discretization;
        let loss = |x: f64| -((q * ((2.0 * x - 1.0) / (2.0 * sigma * sigma)).exp_m1()).ln_1p());
        // Inverse: x(ℓ) = ½ + σ²·ln1p(expm1(−ℓ)/q); −∞ once ℓ reaches the
        // supremum −ln(1−q).
        let x_of = |l: f64| {
            let r = (-l).exp_m1() / q;
            if r <= -1.0 {
                f64::NEG_INFINITY
            } else {
                0.5 + sigma * sigma * r.ln_1p()
            }
        };
        // x ~ N(0, σ²); mass above x is what falls into losses below ℓ(x).
        let sf = |x: f64| {
            if x == f64::NEG_INFINITY {
                1.0
            } else {
                norm_cdf(-x / sigma)
            }
        };
        // Lowest losses come from the largest x: bracket at x_hi = zσ.
        let k_lo = (loss(z * sigma) / delta_x).round() as i64;
        // The supremum −ln(1−q) bounds the top bucket.
        let k_hi = (-(1.0 - q).ln() / delta_x).round() as i64;
        let n = usize::try_from(k_hi - k_lo + 1).unwrap_or(usize::MAX);
        if n > MAX_BINS {
            return Err(AccountError::GridOverflow(format!(
                "subsampled-Gaussian PLD needs {n} buckets at discretization {delta_x}"
            )));
        }
        let mut pmf = Vec::with_capacity(n);
        for k in k_lo..=k_hi {
            // Bucket k's losses ((k−½)Δ, (k+½)Δ] map to x ∈ [x((k+½)Δ),
            // x((k−½)Δ)); the lowest bucket absorbs everything below
            // (pessimistic: their loss rounds up), the highest everything
            // above (x → −∞, bounded loss — no infinity mass).
            let hi_mass = if k == k_lo {
                1.0
            } else {
                sf(x_of((k as f64 - 0.5) * delta_x))
            };
            let lo_mass = sf(x_of((k as f64 + 0.5) * delta_x));
            pmf.push((lo_mass - hi_mass).max(0.0));
        }
        let mut pld = Self {
            grid: delta_x,
            min_index: k_lo,
            pmf,
            infinity_mass: 0.0,
        };
        pld.trim_zeros();
        Ok(pld)
    }

    /// The PLD of the Laplace mechanism at sensitivity 1 and scale `b`
    /// (symmetric): atoms of mass ½ at `+1/b` and `½e^{−1/b}` at `−1/b`,
    /// with the continuous part `ℓ = (1−2x)/b` for `x ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Invalid scale or options, or a scale so small the grid overflows.
    pub fn laplace(scale: f64, opts: &PldOptions) -> Result<Self, AccountError> {
        opts.validate()?;
        if !(scale.is_finite() && scale > 0.0) {
            return Err(AccountError::InvalidParameter(format!(
                "Laplace scale must be positive and finite, got {scale}"
            )));
        }
        let b = scale;
        let delta_x = opts.discretization;
        let k_hi = (1.0 / (b * delta_x)).round() as i64;
        let k_lo = -k_hi;
        let n = usize::try_from(k_hi - k_lo + 1).unwrap_or(usize::MAX);
        if n > MAX_BINS {
            return Err(AccountError::GridOverflow(format!(
                "Laplace PLD needs {n} buckets at discretization {delta_x} (scale {b})"
            )));
        }
        let mut pmf = vec![0.0; n];
        // Atoms: x ≤ 0 has loss exactly +1/b (mass ½ under Lap(0, b));
        // x ≥ 1 has loss exactly −1/b (mass ½e^{−1/b}).
        pmf[(k_hi - k_lo) as usize] += 0.5;
        pmf[0] += 0.5 * (-1.0 / b).exp();
        // Continuous part on x ∈ (0, 1): CDF F(x) = 1 − ½e^{−x/b},
        // x(ℓ) = (1 − bℓ)/2 decreasing in ℓ.
        let cdf = |x: f64| 1.0 - 0.5 * (-x / b).exp();
        for (i, slot) in pmf.iter_mut().enumerate() {
            let k = k_lo + i as i64;
            let x_hi = ((1.0 - b * (k as f64 - 0.5) * delta_x) / 2.0).clamp(0.0, 1.0);
            let x_lo = ((1.0 - b * (k as f64 + 0.5) * delta_x) / 2.0).clamp(0.0, 1.0);
            *slot += (cdf(x_hi) - cdf(x_lo)).max(0.0);
        }
        let mut pld = Self {
            grid: delta_x,
            min_index: k_lo,
            pmf,
            infinity_mass: 0.0,
        };
        pld.trim_zeros();
        Ok(pld)
    }

    /// Composes two PLDs (independent losses add ⇒ PMFs convolve; the
    /// convolution routes through `diva_tensor::fft` past the small-size
    /// cutoff). Tails are re-truncated to `opts.tail_mass` afterwards.
    ///
    /// # Errors
    ///
    /// Mismatched grids or a result exceeding the bucket cap.
    pub fn compose_with(&self, other: &Pld, opts: &PldOptions) -> Result<Self, AccountError> {
        if self.grid != other.grid {
            return Err(AccountError::InvalidParameter(format!(
                "cannot compose PLDs on different grids ({} vs {})",
                self.grid, other.grid
            )));
        }
        let n = self.pmf.len() + other.pmf.len() - 1;
        if n > MAX_BINS {
            return Err(AccountError::GridOverflow(format!(
                "composition needs {n} buckets (cap {MAX_BINS}); coarsen the discretization"
            )));
        }
        let mut pmf = convolve(&self.pmf, &other.pmf);
        // FFT round-off can leave ~1e-17-scale negatives; they are not
        // probability mass.
        for v in &mut pmf {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let mut out = Self {
            grid: self.grid,
            min_index: self.min_index + other.min_index,
            pmf,
            infinity_mass: 1.0 - (1.0 - self.infinity_mass) * (1.0 - other.infinity_mass),
        };
        out.truncate_tails(opts.tail_mass);
        Ok(out)
    }

    /// `count`-fold self-composition by binary exponentiation (≤ 2·log₂
    /// convolutions).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::compose_with`] errors.
    pub fn self_compose(&self, count: u64, opts: &PldOptions) -> Result<Self, AccountError> {
        let mut result = Self::identity(self.grid);
        let mut base = self.clone();
        let mut n = count;
        while n > 0 {
            if n & 1 == 1 {
                result = result.compose_with(&base, opts)?;
            }
            n >>= 1;
            if n > 0 {
                base = base.compose_with(&base, opts)?;
            }
        }
        Ok(result)
    }

    /// The hockey-stick divergence δ(ε) of this direction.
    pub fn delta_at(&self, epsilon: f64) -> f64 {
        let mut delta = self.infinity_mass;
        for (i, &p) in self.pmf.iter().enumerate() {
            let l = self.loss(i);
            if l > epsilon {
                delta += p * (1.0 - (epsilon - l).exp());
            }
        }
        delta.clamp(0.0, 1.0)
    }

    /// The smallest ε ≥ 0 with δ(ε) ≤ `delta`, solved in closed form on
    /// the grid segment containing the crossing (so `delta_at(epsilon_at(δ))
    /// ≈ δ` to round-off when the answer is positive).
    ///
    /// # Errors
    ///
    /// [`AccountError::NoFiniteAnswer`] if `delta` does not exceed the
    /// infinity mass.
    pub fn epsilon_at(&self, delta: f64) -> Result<f64, AccountError> {
        if delta <= self.infinity_mass {
            return Err(AccountError::NoFiniteAnswer(format!(
                "delta {delta} is at or below the PLD's truncated infinity mass {} — \
                 no finite epsilon reaches it (tighten PldOptions::tail_mass)",
                self.infinity_mass
            )));
        }
        if self.delta_at(0.0) <= delta {
            return Ok(0.0);
        }
        // On ε ∈ [ℓ_{j−1}, ℓ_j): δ(ε) = A_j − e^ε·B_j + m_∞ with suffix
        // sums A_j = Σ_{i≥j} p_i, B_j = Σ_{i≥j} p_i e^{−ℓ_i}. Walk from
        // the top until the segment brackets `delta`, then invert exactly.
        let mut a = 0.0f64;
        let mut b = 0.0f64;
        for j in (0..self.pmf.len()).rev() {
            a += self.pmf[j];
            b += self.pmf[j] * (-self.loss(j)).exp();
            let left = if j == 0 {
                f64::NEG_INFINITY
            } else {
                self.loss(j - 1)
            };
            let delta_left = a - left.exp() * b + self.infinity_mass;
            if delta_left >= delta {
                let num = a + self.infinity_mass - delta;
                if num <= 0.0 || b <= 0.0 {
                    return Ok(left.max(0.0));
                }
                let eps = (num / b).ln();
                // Clamp into the segment against round-off at its edges.
                let right = self.loss(j);
                return Ok(eps.clamp(left.min(right), right).max(0.0));
            }
        }
        Ok(0.0)
    }

    /// Drops (pessimistically) up to `tail` mass from each end: the upper
    /// tail becomes infinity mass, the lower tail collapses into the
    /// lowest kept bucket.
    fn truncate_tails(&mut self, tail: f64) {
        // Upper tail → infinity mass.
        let mut cum = 0.0;
        let mut hi = self.pmf.len();
        while hi > 1 && cum + self.pmf[hi - 1] <= tail {
            cum += self.pmf[hi - 1];
            hi -= 1;
        }
        if hi < self.pmf.len() {
            self.infinity_mass += cum;
            self.pmf.truncate(hi);
        }
        // Lower tail → lowest kept bucket.
        let mut cum = 0.0;
        let mut lo = 0usize;
        while lo + 1 < self.pmf.len() && cum + self.pmf[lo] <= tail {
            cum += self.pmf[lo];
            lo += 1;
        }
        if lo > 0 {
            self.pmf.drain(..lo);
            self.pmf[0] += cum;
            self.min_index += lo as i64;
        }
        self.trim_zeros();
    }

    /// Trims exactly-zero buckets from both ends (a no-cost tightening).
    fn trim_zeros(&mut self) {
        let hi = self.pmf.iter().rposition(|&p| p > 0.0).map_or(1, |i| i + 1);
        self.pmf.truncate(hi.max(1));
        let lo = self.pmf.iter().position(|&p| p > 0.0).unwrap_or(0);
        if lo > 0 {
            self.pmf.drain(..lo);
            self.min_index += lo as i64;
        }
    }
}

fn check_subsampled(q: f64, sigma: f64, opts: &PldOptions) -> Result<(), AccountError> {
    opts.validate()?;
    if !(q.is_finite() && q > 0.0 && q < 1.0) {
        return Err(AccountError::InvalidParameter(format!(
            "subsampled-Gaussian PLD needs sampling rate in (0, 1), got {q} \
             (q = 1 is the plain Gaussian)"
        )));
    }
    if !(sigma.is_finite() && sigma > 0.0) {
        return Err(AccountError::InvalidParameter(format!(
            "noise multiplier must be positive and finite, got {sigma}"
        )));
    }
    Ok(())
}

/// The per-step PLD(s) of one event: `(up, Some(down))` for asymmetric
/// mechanisms (subsampled), `(pld, None)` for symmetric ones.
pub(crate) fn event_step_plds(
    event: &DpEvent,
    opts: &PldOptions,
) -> Result<(Pld, Option<Pld>), AccountError> {
    match event {
        DpEvent::Gaussian { noise_multiplier } => {
            Ok((Pld::gaussian(*noise_multiplier, opts)?, None))
        }
        DpEvent::Laplace { scale } => Ok((Pld::laplace(*scale, opts)?, None)),
        DpEvent::PoissonSampled {
            sampling_rate,
            event,
        } => match event.as_ref() {
            DpEvent::Gaussian { noise_multiplier } => {
                if (*sampling_rate - 1.0).abs() < f64::EPSILON {
                    Ok((Pld::gaussian(*noise_multiplier, opts)?, None))
                } else {
                    Ok((
                        Pld::subsampled_gaussian_up(*sampling_rate, *noise_multiplier, opts)?,
                        Some(Pld::subsampled_gaussian_down(
                            *sampling_rate,
                            *noise_multiplier,
                            opts,
                        )?),
                    ))
                }
            }
            other => Err(AccountError::UnsupportedEvent(format!(
                "PLD accountant has no subsampled dominating pair for {other:?} \
                 (only Poisson-subsampled Gaussian is supported)"
            ))),
        },
        // Composite events are flattened by the accountant's `compose`
        // walk before reaching here.
        other => Err(AccountError::UnsupportedEvent(format!(
            "event_step_plds expects a leaf mechanism, got {other:?}"
        ))),
    }
}

/// The PLD accountant: composes [`DpEvent`] trees into one discretized
/// PLD per adjacency direction and answers ε(δ)/δ(ε) by the hockey-stick
/// divergence. Tighter than [`crate::RdpEventAccountant`] on every
/// supported event (the property suite pins the invariant).
#[derive(Clone, Debug)]
pub struct PldAccountant {
    opts: PldOptions,
    up: Pld,
    /// Diverges from `up` once an asymmetric (subsampled) event composes;
    /// `None` while everything composed so far is symmetric.
    down: Option<Pld>,
}

impl Default for PldAccountant {
    fn default() -> Self {
        Self::new()
    }
}

impl PldAccountant {
    /// A fresh accountant with the default discretization.
    pub fn new() -> Self {
        Self::with_options(PldOptions::default()).expect("default PldOptions validate")
    }

    /// A fresh accountant with explicit options.
    ///
    /// # Errors
    ///
    /// Invalid options.
    pub fn with_options(opts: PldOptions) -> Result<Self, AccountError> {
        opts.validate()?;
        Ok(Self {
            opts,
            up: Pld::identity(opts.discretization),
            down: None,
        })
    }

    /// The options this accountant composes with.
    pub fn options(&self) -> PldOptions {
        self.opts
    }

    /// The composed PLD per adjacency direction (`down` is `None` while
    /// everything composed so far is symmetric) — the batch API's entry
    /// into prefix reuse.
    pub(crate) fn directions(&self) -> (&Pld, Option<&Pld>) {
        (&self.up, self.down.as_ref())
    }

    fn compose_step(
        &mut self,
        up_step: &Pld,
        down_step: Option<&Pld>,
        count: u64,
    ) -> Result<(), AccountError> {
        let up_pow = up_step.self_compose(count, &self.opts)?;
        if down_step.is_some() && self.down.is_none() {
            // The symmetric prefix is shared; fork it before diverging.
            self.down = Some(self.up.clone());
        }
        self.up = self.up.compose_with(&up_pow, &self.opts)?;
        if let Some(down) = self.down.as_mut() {
            let step = down_step.unwrap_or(up_step);
            let down_pow = step.self_compose(count, &self.opts)?;
            *down = down.compose_with(&down_pow, &self.opts)?;
        }
        Ok(())
    }

    fn compose_walk(&mut self, event: &DpEvent, count: u64) -> Result<(), AccountError> {
        if count == 0 {
            return Ok(());
        }
        match event {
            DpEvent::Composed { events } => {
                for e in events {
                    self.compose_walk(e, count)?;
                }
                Ok(())
            }
            DpEvent::SelfComposed { event, count: k } => {
                let total = count.checked_mul(*k).ok_or_else(|| {
                    AccountError::InvalidParameter(format!(
                        "composition count overflow: {count} × {k}"
                    ))
                })?;
                self.compose_walk(event, total)
            }
            leaf => {
                let (up, down) = event_step_plds(leaf, &self.opts)?;
                self.compose_step(&up, down.as_ref(), count)
            }
        }
    }
}

impl Accountant for PldAccountant {
    fn name(&self) -> &'static str {
        "pld"
    }

    fn compose(&mut self, event: &DpEvent, count: u64) -> Result<(), AccountError> {
        event.validate()?;
        self.compose_walk(event, count)
    }

    fn epsilon(&self, delta: f64) -> Result<f64, AccountError> {
        check_delta(delta)?;
        let eps_up = self.up.epsilon_at(delta)?;
        match &self.down {
            None => Ok(eps_up),
            Some(down) => Ok(eps_up.max(down.epsilon_at(delta)?)),
        }
    }

    fn delta(&self, epsilon: f64) -> Result<f64, AccountError> {
        check_epsilon(epsilon)?;
        let d_up = self.up.delta_at(epsilon);
        match &self.down {
            None => Ok(d_up),
            Some(down) => Ok(d_up.max(down.delta_at(epsilon))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::gaussian_delta;
    use crate::event::{event_epsilon, AccountantKind};

    fn opts() -> PldOptions {
        PldOptions::default()
    }

    #[test]
    fn gaussian_pld_mass_sums_to_one() {
        let pld = Pld::gaussian(1.0, &opts()).unwrap();
        let total: f64 = pld.pmf.iter().sum::<f64>() + pld.infinity_mass;
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
    }

    #[test]
    fn gaussian_pld_delta_matches_analytic_formula() {
        // The hockey-stick of the Gaussian PLD must reproduce the exact
        // Balle–Wang δ(ε) up to discretization.
        for sigma in [0.8, 1.5, 3.0] {
            let pld = Pld::gaussian(sigma, &opts()).unwrap();
            for eps in [0.25, 1.0, 2.0] {
                let got = pld.delta_at(eps);
                let want = gaussian_delta(sigma, eps).unwrap();
                assert!(
                    (got - want).abs() < 1e-4 * want.max(1e-6) + 1e-9,
                    "sigma {sigma} eps {eps}: pld {got} vs analytic {want}"
                );
            }
        }
    }

    #[test]
    fn subsampled_pld_mass_sums_to_one_both_directions() {
        for (q, sigma) in [(0.01, 1.0), (0.1, 0.8), (0.004, 2.0)] {
            let up = Pld::subsampled_gaussian_up(q, sigma, &opts()).unwrap();
            let down = Pld::subsampled_gaussian_down(q, sigma, &opts()).unwrap();
            let up_total: f64 = up.pmf.iter().sum::<f64>() + up.infinity_mass;
            let down_total: f64 = down.pmf.iter().sum::<f64>() + down.infinity_mass;
            assert!((up_total - 1.0).abs() < 1e-9, "up {up_total}");
            assert!((down_total - 1.0).abs() < 1e-9, "down {down_total}");
        }
    }

    #[test]
    fn laplace_pld_matches_pure_dp() {
        // The Laplace mechanism is (1/b, 0)-DP: δ(1/b) = 0 and ε(δ) ≤ 1/b.
        let b = 0.8;
        let pld = Pld::laplace(b, &opts()).unwrap();
        assert!(pld.delta_at(1.0 / b + 1e-6) < 1e-12);
        let eps = pld.epsilon_at(1e-9).unwrap();
        assert!(eps <= 1.0 / b + 1e-6, "eps {eps} vs pure {}", 1.0 / b);
    }

    #[test]
    fn composition_shifts_epsilon_up() {
        let base = Pld::gaussian(2.0, &opts()).unwrap();
        let twice = base.compose_with(&base, &opts()).unwrap();
        let e1 = base.epsilon_at(1e-5).unwrap();
        let e2 = twice.epsilon_at(1e-5).unwrap();
        assert!(e2 > e1, "{e2} vs {e1}");
    }

    #[test]
    fn self_compose_matches_sequential() {
        let base = Pld::gaussian(1.5, &opts()).unwrap();
        let seq = base
            .compose_with(&base, &opts())
            .unwrap()
            .compose_with(&base, &opts())
            .unwrap();
        let pow = base.self_compose(3, &opts()).unwrap();
        let e_seq = seq.epsilon_at(1e-5).unwrap();
        let e_pow = pow.epsilon_at(1e-5).unwrap();
        assert!(
            (e_seq - e_pow).abs() < 1e-6 * e_seq.max(1.0),
            "{e_seq} vs {e_pow}"
        );
    }

    #[test]
    fn delta_epsilon_round_trip_is_exact_on_a_segment() {
        let pld = Pld::gaussian(1.0, &opts())
            .unwrap()
            .self_compose(10, &opts())
            .unwrap();
        for delta in [1e-4, 1e-6, 1e-8] {
            let eps = pld.epsilon_at(delta).unwrap();
            assert!(eps > 0.0);
            let back = pld.delta_at(eps);
            assert!(
                (back - delta).abs() < 1e-9 * delta.max(1e-12) + 1e-14,
                "delta {delta} -> eps {eps} -> {back}"
            );
        }
    }

    #[test]
    fn delta_below_infinity_mass_is_a_typed_error() {
        let mut pld = Pld::gaussian(1.0, &opts()).unwrap();
        pld.infinity_mass = 1e-3;
        assert!(matches!(
            pld.epsilon_at(1e-4),
            Err(AccountError::NoFiniteAnswer(_))
        ));
    }

    #[test]
    fn accountant_q_one_routes_to_plain_gaussian() {
        let eps_sub =
            event_epsilon(AccountantKind::Pld, &DpEvent::dp_sgd(1.0, 2.0, 4), 1e-5).unwrap();
        let eps_plain = event_epsilon(
            AccountantKind::Pld,
            &DpEvent::self_composed(DpEvent::gaussian(2.0), 4),
            1e-5,
        )
        .unwrap();
        assert_eq!(eps_sub, eps_plain);
    }

    #[test]
    fn empty_accountant_spends_nothing() {
        let acc = PldAccountant::new();
        assert_eq!(acc.epsilon(1e-5).unwrap(), 0.0);
        assert_eq!(acc.delta(1.0).unwrap(), 0.0);
    }

    #[test]
    fn grid_mismatch_is_rejected() {
        let a = Pld::gaussian(1.0, &opts()).unwrap();
        let b = Pld::gaussian(
            1.0,
            &PldOptions {
                discretization: 2e-3,
                ..opts()
            },
        )
        .unwrap();
        assert!(matches!(
            a.compose_with(&b, &opts()),
            Err(AccountError::InvalidParameter(_))
        ));
    }
}

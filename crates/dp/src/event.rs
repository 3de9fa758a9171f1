//! The `DpEvent` algebra: mechanism invocations as a composable value
//! type, evaluated by interchangeable accountants.
//!
//! A [`DpEvent`] describes *what was released* — a Gaussian mechanism
//! invocation, a Laplace one, a Poisson-subsampled wrapper, or a
//! (self-)composition of other events — without fixing *how* its privacy
//! cost is bounded. Accountants implementing the [`Accountant`] trait walk
//! the tree and accumulate their own internal state: the Rényi-DP
//! accountant ([`RdpEventAccountant`]) keeps per-order RDP totals, the PLD
//! accountant ([`crate::PldAccountant`]) keeps a discretized privacy-loss
//! distribution composed by FFT convolution. Evaluating one event tree
//! under both yields two comparable (ε, δ) bounds — the cross-check
//! invariant the property suite enforces is `ε_PLD ≤ ε_RDP` (PLD is exact
//! up to discretization; RDP-to-DP conversion is lossy).

use crate::accountant::{log_sum_exp, subsampled_gaussian_rdp};
use crate::error::AccountError;
use crate::pld::PldAccountant;

/// One differential-privacy event: a mechanism invocation or a composition
/// of other events.
#[derive(Clone, Debug, PartialEq)]
pub enum DpEvent {
    /// The Gaussian mechanism at sensitivity 1 with standard deviation
    /// `noise_multiplier`.
    Gaussian {
        /// Noise standard deviation σ relative to an L2 sensitivity of 1.
        noise_multiplier: f64,
    },
    /// The Laplace mechanism at sensitivity 1 with the given scale `b`.
    Laplace {
        /// Noise scale `b` relative to an L1 sensitivity of 1.
        scale: f64,
    },
    /// Poisson subsampling at rate `sampling_rate` around an inner event
    /// (one DP-SGD step is `PoissonSampled { q, Gaussian { σ } }`).
    PoissonSampled {
        /// Inclusion probability `q ∈ (0, 1]` of each example.
        sampling_rate: f64,
        /// The mechanism run on the sampled batch.
        event: Box<DpEvent>,
    },
    /// A heterogeneous sequence of events, composed adaptively.
    Composed {
        /// The events in composition order.
        events: Vec<DpEvent>,
    },
    /// `count` adaptive repetitions of one event (e.g. the steps of a
    /// training run).
    SelfComposed {
        /// The repeated event.
        event: Box<DpEvent>,
        /// Number of repetitions.
        count: u64,
    },
}

impl DpEvent {
    /// A Gaussian mechanism event.
    pub fn gaussian(noise_multiplier: f64) -> Self {
        Self::Gaussian { noise_multiplier }
    }

    /// A Laplace mechanism event.
    pub fn laplace(scale: f64) -> Self {
        Self::Laplace { scale }
    }

    /// Poisson subsampling around `event` at rate `sampling_rate`.
    pub fn poisson_sampled(sampling_rate: f64, event: DpEvent) -> Self {
        Self::PoissonSampled {
            sampling_rate,
            event: Box::new(event),
        }
    }

    /// A heterogeneous composition of `events`.
    pub fn composed(events: Vec<DpEvent>) -> Self {
        Self::Composed { events }
    }

    /// `count` repetitions of `event`.
    pub fn self_composed(event: DpEvent, count: u64) -> Self {
        Self::SelfComposed {
            event: Box::new(event),
            count,
        }
    }

    /// The event of a DP-SGD training run: `steps` repetitions of the
    /// Poisson-subsampled Gaussian mechanism at rate `q` and noise
    /// multiplier σ.
    pub fn dp_sgd(sampling_rate: f64, noise_multiplier: f64, steps: u64) -> Self {
        Self::self_composed(
            Self::poisson_sampled(sampling_rate, Self::gaussian(noise_multiplier)),
            steps,
        )
    }

    /// Validates every parameter in the tree.
    ///
    /// # Errors
    ///
    /// [`AccountError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), AccountError> {
        match self {
            Self::Gaussian { noise_multiplier } => {
                if !(noise_multiplier.is_finite() && *noise_multiplier > 0.0) {
                    return Err(AccountError::InvalidParameter(format!(
                        "noise multiplier must be positive and finite, got {noise_multiplier}"
                    )));
                }
            }
            Self::Laplace { scale } => {
                if !(scale.is_finite() && *scale > 0.0) {
                    return Err(AccountError::InvalidParameter(format!(
                        "Laplace scale must be positive and finite, got {scale}"
                    )));
                }
            }
            Self::PoissonSampled {
                sampling_rate,
                event,
            } => {
                if !(sampling_rate.is_finite() && *sampling_rate > 0.0 && *sampling_rate <= 1.0) {
                    return Err(AccountError::InvalidParameter(format!(
                        "sampling rate must be in (0, 1], got {sampling_rate}"
                    )));
                }
                event.validate()?;
            }
            Self::Composed { events } => {
                for e in events {
                    e.validate()?;
                }
            }
            Self::SelfComposed { event, .. } => event.validate()?,
        }
        Ok(())
    }
}

/// A privacy accountant: composes [`DpEvent`]s into internal state and
/// answers ε(δ) / δ(ε) queries about everything composed so far.
pub trait Accountant {
    /// A short stable name for reports ("rdp" / "pld").
    fn name(&self) -> &'static str;

    /// Composes `count` repetitions of `event` into the accountant.
    ///
    /// # Errors
    ///
    /// Invalid parameters or an event tree this accountant has no bound
    /// for; the accountant state is unspecified after an error (discard it).
    fn compose(&mut self, event: &DpEvent, count: u64) -> Result<(), AccountError>;

    /// The smallest ε such that everything composed so far is (ε, δ)-DP.
    ///
    /// # Errors
    ///
    /// `delta` outside `(0, 1)`, or a query with no finite answer.
    fn epsilon(&self, delta: f64) -> Result<f64, AccountError>;

    /// The smallest δ such that everything composed so far is (ε, δ)-DP.
    ///
    /// # Errors
    ///
    /// `epsilon` negative or non-finite.
    fn delta(&self, epsilon: f64) -> Result<f64, AccountError>;
}

/// Which accountant evaluates an event tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccountantKind {
    /// Rényi-DP (moments accountant): cheap, composition is addition of
    /// per-order totals; the (ε, δ) conversion is an upper bound with
    /// slack.
    Rdp,
    /// Privacy-loss-distribution accounting with FFT composition: near
    /// exact (the only looseness is the discretization grid), tighter
    /// than RDP on every DP-SGD configuration we track.
    Pld,
}

impl AccountantKind {
    /// A fresh accountant of this kind with default options.
    pub fn accountant(self) -> Box<dyn Accountant> {
        match self {
            Self::Rdp => Box::new(RdpEventAccountant::new()),
            Self::Pld => Box::new(PldAccountant::new()),
        }
    }

    /// The stable lowercase name ("rdp" / "pld").
    pub fn label(self) -> &'static str {
        match self {
            Self::Rdp => "rdp",
            Self::Pld => "pld",
        }
    }

    /// Parses a case-insensitive accountant name.
    ///
    /// # Errors
    ///
    /// [`AccountError::InvalidParameter`] for anything but "rdp"/"pld".
    pub fn parse(name: &str) -> Result<Self, AccountError> {
        match name.to_ascii_lowercase().as_str() {
            "rdp" => Ok(Self::Rdp),
            "pld" => Ok(Self::Pld),
            other => Err(AccountError::InvalidParameter(format!(
                "unknown accountant {other:?} (expected \"rdp\" or \"pld\")"
            ))),
        }
    }
}

/// One-shot ε query: composes `event` once into a fresh accountant of
/// `kind` and returns ε at `delta`.
///
/// # Errors
///
/// Propagates composition and query errors from the accountant.
pub fn event_epsilon(
    kind: AccountantKind,
    event: &DpEvent,
    delta: f64,
) -> Result<f64, AccountError> {
    let mut acc = kind.accountant();
    acc.compose(event, 1)?;
    acc.epsilon(delta)
}

/// The Rényi-DP (moments) accountant over [`DpEvent`] trees: accumulates
/// per-order RDP totals on the integer grid α ∈ [2, 256] and converts to
/// (ε, δ) via `ε = min_α [RDP(α) + ln(1/δ)/(α−1)]`.
///
/// # Example
///
/// ```
/// use diva_dp::{event_epsilon, AccountantKind, DpEvent};
/// let event = DpEvent::dp_sgd(0.01, 1.1, 1_000);
/// let eps = event_epsilon(AccountantKind::Rdp, &event, 1e-5).unwrap();
/// assert!(eps > 0.0 && eps < 5.0);
/// ```
#[derive(Clone, Debug)]
pub struct RdpEventAccountant {
    orders: Vec<u32>,
    totals: Vec<f64>,
    composed_any: bool,
}

impl Default for RdpEventAccountant {
    fn default() -> Self {
        Self::new()
    }
}

impl RdpEventAccountant {
    /// An empty accountant on the default order grid α ∈ [2, 256].
    pub fn new() -> Self {
        let orders: Vec<u32> = (2..=256).collect();
        let totals = vec![0.0; orders.len()];
        Self {
            orders,
            totals,
            composed_any: false,
        }
    }

    /// The accumulated RDP of one `event` at order `alpha`.
    fn event_rdp(event: &DpEvent, alpha: u32) -> Result<f64, AccountError> {
        match event {
            DpEvent::Gaussian { noise_multiplier } => {
                Ok(f64::from(alpha) / (2.0 * noise_multiplier * noise_multiplier))
            }
            DpEvent::Laplace { scale } => Ok(laplace_rdp(alpha, *scale)),
            DpEvent::PoissonSampled {
                sampling_rate,
                event,
            } => match event.as_ref() {
                DpEvent::Gaussian { noise_multiplier } => Ok(subsampled_gaussian_rdp(
                    *sampling_rate,
                    *noise_multiplier,
                    alpha,
                )),
                other => Err(AccountError::UnsupportedEvent(format!(
                    "RDP accountant has no subsampled bound for {other:?} \
                     (only Poisson-subsampled Gaussian is supported)"
                ))),
            },
            DpEvent::Composed { events } => {
                let mut total = 0.0;
                for e in events {
                    total += Self::event_rdp(e, alpha)?;
                }
                Ok(total)
            }
            DpEvent::SelfComposed { event, count } => {
                Ok(*count as f64 * Self::event_rdp(event, alpha)?)
            }
        }
    }

    /// ε at `delta` if the accumulated totals were scaled by `factor` —
    /// the batch-ε fast path (per-order RDP composes linearly, so ε at
    /// many step counts reuses one per-order evaluation).
    pub(crate) fn epsilon_scaled(&self, factor: f64, delta: f64) -> Result<f64, AccountError> {
        check_delta(delta)?;
        if !self.composed_any || factor == 0.0 {
            return Ok(0.0);
        }
        let ln_inv_delta = (1.0 / delta).ln();
        Ok(self
            .orders
            .iter()
            .zip(&self.totals)
            .map(|(&alpha, &rdp)| factor * rdp + ln_inv_delta / (f64::from(alpha) - 1.0))
            .fold(f64::INFINITY, f64::min))
    }
}

impl Accountant for RdpEventAccountant {
    fn name(&self) -> &'static str {
        "rdp"
    }

    fn compose(&mut self, event: &DpEvent, count: u64) -> Result<(), AccountError> {
        event.validate()?;
        if count == 0 {
            return Ok(());
        }
        // Validate the whole tree is supported before mutating any total,
        // so a failed compose leaves consistent state.
        let per_order: Vec<f64> = self
            .orders
            .iter()
            .map(|&alpha| Self::event_rdp(event, alpha))
            .collect::<Result<_, _>>()?;
        for (total, rdp) in self.totals.iter_mut().zip(per_order) {
            *total += count as f64 * rdp;
        }
        self.composed_any = true;
        Ok(())
    }

    fn epsilon(&self, delta: f64) -> Result<f64, AccountError> {
        self.epsilon_scaled(1.0, delta)
    }

    fn delta(&self, epsilon: f64) -> Result<f64, AccountError> {
        check_epsilon(epsilon)?;
        if !self.composed_any {
            return Ok(0.0);
        }
        // δ = min_α exp((α−1)·(RDP(α) − ε)), clamped to [0, 1].
        let ln_delta = self
            .orders
            .iter()
            .zip(&self.totals)
            .map(|(&alpha, &rdp)| (f64::from(alpha) - 1.0) * (rdp - epsilon))
            .fold(f64::INFINITY, f64::min);
        Ok(ln_delta.exp().min(1.0))
    }
}

/// RDP of the Laplace mechanism at sensitivity 1 and scale `b`
/// (Mironov, CSF'17, Table II), evaluated in log space so large `(α−1)/b`
/// cannot overflow:
///
/// ```text
/// RDP(α) = 1/(α−1) · ln[ α/(2α−1)·e^{(α−1)/b} + (α−1)/(2α−1)·e^{−α/b} ]
/// ```
fn laplace_rdp(alpha: u32, b: f64) -> f64 {
    let a = f64::from(alpha);
    let t1 = (a / (2.0 * a - 1.0)).ln() + (a - 1.0) / b;
    let t2 = ((a - 1.0) / (2.0 * a - 1.0)).ln() - a / b;
    (log_sum_exp(&[t1, t2]) / (a - 1.0)).max(0.0)
}

pub(crate) fn check_delta(delta: f64) -> Result<(), AccountError> {
    if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
        return Err(AccountError::InvalidParameter(format!(
            "delta must be in (0, 1), got {delta}"
        )));
    }
    Ok(())
}

pub(crate) fn check_epsilon(epsilon: f64) -> Result<(), AccountError> {
    if !(epsilon.is_finite() && epsilon >= 0.0) {
        return Err(AccountError::InvalidParameter(format!(
            "epsilon must be non-negative and finite, got {epsilon}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_and_self_composed_agree() {
        let step = DpEvent::poisson_sampled(0.02, DpEvent::gaussian(1.0));
        let seq = DpEvent::composed(vec![step.clone(); 5]);
        let rep = DpEvent::self_composed(step, 5);
        let e1 = event_epsilon(AccountantKind::Rdp, &seq, 1e-5).unwrap();
        let e2 = event_epsilon(AccountantKind::Rdp, &rep, 1e-5).unwrap();
        assert!((e1 - e2).abs() < 1e-12);
    }

    #[test]
    fn gaussian_event_uses_closed_form() {
        // Plain Gaussian RDP(α) = α/(2σ²); at σ = 2, steps = 1 the best
        // order balances noise against the delta term.
        let mut acc = RdpEventAccountant::new();
        acc.compose(&DpEvent::gaussian(2.0), 1).unwrap();
        let eps = acc.epsilon(1e-5).unwrap();
        let expected = (2u32..=256)
            .map(|a| f64::from(a) / 8.0 + (1e5f64).ln() / (f64::from(a) - 1.0))
            .fold(f64::INFINITY, f64::min);
        assert!((eps - expected).abs() < 1e-12);
    }

    #[test]
    fn laplace_rdp_limits_to_pure_epsilon() {
        // As α → ∞, Laplace RDP approaches the pure-DP ε = 1/b.
        let b = 0.5;
        let r = laplace_rdp(256, b);
        assert!(r <= 1.0 / b + 1e-9, "rdp {r} exceeds pure eps {}", 1.0 / b);
        assert!(r > 0.8 / b, "rdp {r} far below pure eps {}", 1.0 / b);
    }

    #[test]
    fn subsampled_laplace_is_unsupported() {
        let event = DpEvent::poisson_sampled(0.1, DpEvent::laplace(1.0));
        let mut acc = RdpEventAccountant::new();
        let err = acc.compose(&event, 1).unwrap_err();
        assert!(matches!(err, AccountError::UnsupportedEvent(_)));
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        for event in [
            DpEvent::gaussian(0.0),
            DpEvent::gaussian(f64::NAN),
            DpEvent::laplace(-1.0),
            DpEvent::poisson_sampled(1.5, DpEvent::gaussian(1.0)),
            DpEvent::poisson_sampled(0.0, DpEvent::gaussian(1.0)),
        ] {
            assert!(matches!(
                event.validate(),
                Err(AccountError::InvalidParameter(_))
            ));
        }
        let mut acc = RdpEventAccountant::new();
        acc.compose(&DpEvent::gaussian(1.0), 1).unwrap();
        assert!(acc.epsilon(0.0).is_err());
        assert!(acc.epsilon(1.0).is_err());
        assert!(acc.delta(-1.0).is_err());
    }

    #[test]
    fn empty_accountant_spends_nothing() {
        let acc = RdpEventAccountant::new();
        assert_eq!(acc.epsilon(1e-5).unwrap(), 0.0);
        assert_eq!(acc.delta(1.0).unwrap(), 0.0);
    }

    #[test]
    fn kind_parsing_round_trips() {
        assert_eq!(AccountantKind::parse("RDP").unwrap(), AccountantKind::Rdp);
        assert_eq!(AccountantKind::parse("pld").unwrap(), AccountantKind::Pld);
        assert!(AccountantKind::parse("moments").is_err());
        assert_eq!(AccountantKind::Pld.label(), "pld");
    }
}

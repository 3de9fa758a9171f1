//! Noise calibration: analytical Gaussian-mechanism calibration (Balle &
//! Wang, ICML'18) and accountant-driven σ search for DP-SGD.
//!
//! The classic Gaussian calibration `σ = √(2 ln(1.25/δ))/ε` is a
//! sufficient condition that over-noises by 20–40% in common regimes and
//! is vacuous for ε > 1. The analytical calibration instead inverts the
//! *exact* Gaussian hockey-stick divergence
//!
//! ```text
//! δ(ε, σ) = Φ(1/(2σ) − εσ) − e^ε · Φ(−1/(2σ) − εσ)
//! ```
//!
//! which is monotone decreasing in σ, so a bisection recovers the optimal
//! σ for any (ε, δ). The same bisection pattern, with a full accountant
//! (RDP or PLD) as the oracle, calibrates the DP-SGD noise multiplier in
//! [`calibrate_noise`].
//!
//! The normal CDF is built on an in-tree `erfc` (regularized incomplete
//! gamma, series + continued fraction — the classic `gser`/`gcf` split),
//! keeping the zero-external-dependency invariant.

use crate::error::AccountError;
use crate::event::{event_epsilon, AccountantKind, DpEvent};

/// ln Γ(1/2) = ln √π, the normalizer of the incomplete-gamma forms below.
const LN_GAMMA_HALF: f64 = 0.572_364_942_924_700_1;

/// The complementary error function `erfc(x) = 2/√π ∫_x^∞ e^{−t²} dt`,
/// accurate to ~1e-14 relative over the f64 range.
///
/// For `x ≥ 0`, `erfc(x) = Q(1/2, x²)`, the upper regularized incomplete
/// gamma function, computed by its series for small arguments and by a
/// continued fraction (modified Lentz) otherwise; `erfc(−x) = 2 − erfc(x)`.
pub(crate) fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let a = x * x;
    if a < 1.5 {
        // P(1/2, a) by series: P = e^{−a} a^{1/2} / Γ(1/2) · Σ_{n≥0} aⁿ /
        // ((1/2)(3/2)⋯(1/2+n)); erfc = 1 − P.
        if a == 0.0 {
            return 1.0;
        }
        let mut ap = 0.5;
        let mut term = 1.0 / 0.5;
        let mut sum = term;
        for _ in 0..200 {
            ap += 1.0;
            term *= a / ap;
            sum += term;
            if term.abs() < sum.abs() * 1e-17 {
                break;
            }
        }
        1.0 - sum * (-a + 0.5 * a.ln() - LN_GAMMA_HALF).exp()
    } else {
        // Q(1/2, a) by continued fraction (modified Lentz):
        // Q = e^{−a} a^{1/2} / Γ(1/2) · 1/(a+1/2− 1·1/2/(a+3/2− …)).
        let tiny = 1e-300;
        let mut b = a + 0.5;
        let mut c = 1.0 / tiny;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..200 {
            let an = -(i as f64) * (i as f64 - 0.5);
            b += 2.0;
            d = an * d + b;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-17 {
                break;
            }
        }
        (-a + 0.5 * a.ln() - LN_GAMMA_HALF).exp() * h
    }
}

/// The standard normal CDF `Φ(x) = ½·erfc(−x/√2)`.
pub(crate) fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

fn check_sigma(sigma: f64) -> Result<(), AccountError> {
    if !(sigma.is_finite() && sigma > 0.0) {
        return Err(AccountError::InvalidParameter(format!(
            "noise multiplier must be positive and finite, got {sigma}"
        )));
    }
    Ok(())
}

fn check_target(epsilon: f64, delta: f64) -> Result<(), AccountError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(AccountError::InvalidParameter(format!(
            "target epsilon must be positive and finite, got {epsilon}"
        )));
    }
    if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
        return Err(AccountError::InvalidParameter(format!(
            "delta must be in (0, 1), got {delta}"
        )));
    }
    Ok(())
}

/// The exact δ of the Gaussian mechanism at sensitivity 1, noise `σ` and
/// budget `ε` (Balle & Wang 2018, Theorem 5):
/// `δ = Φ(1/(2σ) − εσ) − e^ε·Φ(−1/(2σ) − εσ)`.
///
/// # Errors
///
/// σ must be positive and finite; ε must be non-negative and finite.
pub fn gaussian_delta(sigma: f64, epsilon: f64) -> Result<f64, AccountError> {
    check_sigma(sigma)?;
    if !(epsilon.is_finite() && epsilon >= 0.0) {
        return Err(AccountError::InvalidParameter(format!(
            "epsilon must be non-negative and finite, got {epsilon}"
        )));
    }
    let a = 1.0 / (2.0 * sigma);
    let d = norm_cdf(a - epsilon * sigma) - epsilon.exp() * norm_cdf(-a - epsilon * sigma);
    Ok(d.clamp(0.0, 1.0))
}

/// The smallest ε at which the Gaussian mechanism with noise `σ` is
/// (ε, δ)-DP, by bisection on the exact [`gaussian_delta`] curve.
///
/// # Errors
///
/// Invalid arguments, or δ already met at ε = 0 is fine (returns 0);
/// never fails for valid inputs since δ(ε) → 0 as ε → ∞.
pub fn gaussian_epsilon(sigma: f64, delta: f64) -> Result<f64, AccountError> {
    check_sigma(sigma)?;
    if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
        return Err(AccountError::InvalidParameter(format!(
            "delta must be in (0, 1), got {delta}"
        )));
    }
    if gaussian_delta(sigma, 0.0)? <= delta {
        return Ok(0.0);
    }
    // δ(ε) is strictly decreasing; bracket then bisect.
    let mut hi = 1.0f64;
    while gaussian_delta(sigma, hi)? > delta {
        hi *= 2.0;
        if hi > 1e9 {
            return Err(AccountError::UnachievableTarget(format!(
                "delta {delta} unreachable at sigma {sigma} below epsilon 1e9"
            )));
        }
    }
    let mut lo = 0.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if gaussian_delta(sigma, mid)? > delta {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-12 * hi.max(1.0) {
            break;
        }
    }
    Ok(hi)
}

/// The optimal Gaussian noise multiplier for an (ε, δ) target at
/// sensitivity 1 — the analytical calibration of Balle & Wang 2018,
/// inverting the exact [`gaussian_delta`] by bisection. Always at or
/// below [`classic_gaussian_sigma`], and valid for every ε > 0.
///
/// # Errors
///
/// Invalid (ε, δ), or a target outside the bisection bracket
/// `σ ∈ [10⁻⁶, 10⁹]`.
pub fn gaussian_sigma(epsilon: f64, delta: f64) -> Result<f64, AccountError> {
    check_target(epsilon, delta)?;
    // δ(ε, σ) is strictly decreasing in σ.
    let (mut lo, mut hi) = (1e-6f64, 1e9f64);
    if gaussian_delta(lo, epsilon)? <= delta {
        return Ok(lo);
    }
    if gaussian_delta(hi, epsilon)? > delta {
        return Err(AccountError::UnachievableTarget(format!(
            "({epsilon}, {delta})-DP needs sigma above 1e9"
        )));
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if gaussian_delta(mid, epsilon)? > delta {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-12 * hi {
            break;
        }
    }
    Ok(hi)
}

/// The classic sufficient-condition calibration
/// `σ = √(2 ln(1.25/δ))/ε` (Dwork & Roth 2014). Kept for comparison —
/// [`gaussian_sigma`] dominates it everywhere it applies, and unlike it
/// stays meaningful for ε ≥ 1.
///
/// # Errors
///
/// Invalid (ε, δ).
pub fn classic_gaussian_sigma(epsilon: f64, delta: f64) -> Result<f64, AccountError> {
    check_target(epsilon, delta)?;
    Ok((2.0 * (1.25 / delta).ln()).sqrt() / epsilon)
}

/// The DP-SGD noise multiplier that meets `(target_epsilon, delta)` after
/// `steps` Poisson-subsampled steps at sampling rate `q`, under the given
/// accountant. ε(σ) is monotone decreasing, so a bisection over
/// `σ ∈ [0.2, 1000]` converges to ~4 significant digits.
///
/// # Errors
///
/// Invalid arguments, or a target no σ in the bracket reaches
/// ([`AccountError::UnachievableTarget`]).
pub fn calibrate_noise(
    kind: AccountantKind,
    target_epsilon: f64,
    delta: f64,
    sampling_rate: f64,
    steps: u64,
) -> Result<f64, AccountError> {
    check_target(target_epsilon, delta)?;
    if steps == 0 {
        return Err(AccountError::InvalidParameter(
            "steps must be positive".into(),
        ));
    }
    let eps_at = |sigma: f64| -> Result<f64, AccountError> {
        event_epsilon(kind, &DpEvent::dp_sgd(sampling_rate, sigma, steps), delta)
    };
    let (mut lo, mut hi) = (0.2f64, 1000.0f64);
    // Validates q as a side effect of the first evaluation.
    if eps_at(lo)? <= target_epsilon {
        return Ok(lo);
    }
    if eps_at(hi)? > target_epsilon {
        return Err(AccountError::UnachievableTarget(format!(
            "epsilon {target_epsilon} at delta {delta} needs sigma above 1000 \
             for q {sampling_rate}, {steps} steps"
        )));
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if eps_at(mid)? > target_epsilon {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-4 * hi {
            break;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_matches_reference_values() {
        // Abramowitz & Stegun / mpmath references.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.479_500_122_186_953_4),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 0.004_677_734_981_047_266),
            (3.0, 2.209_049_699_858_544e-5),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                (got - want).abs() < 1e-13 * want.max(1e-30) + 1e-16,
                "erfc({x}) = {got}, want {want}"
            );
            // Reflection: erfc(−x) = 2 − erfc(x).
            assert!((erfc(-x) - (2.0 - want)).abs() < 1e-13);
        }
    }

    #[test]
    fn norm_cdf_sanity() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((norm_cdf(1.96) - 0.975_002_104_851_780_2).abs() < 1e-12);
        assert!((norm_cdf(-1.96) - 0.024_997_895_148_219_8).abs() < 1e-12);
    }

    #[test]
    fn analytic_sigma_round_trips_through_delta() {
        for (eps, delta) in [(0.5, 1e-5), (1.0, 1e-6), (4.0, 1e-5)] {
            let sigma = gaussian_sigma(eps, delta).unwrap();
            let d = gaussian_delta(sigma, eps).unwrap();
            assert!(
                (d - delta).abs() < 1e-9 * delta,
                "eps {eps}: delta {d} vs target {delta}"
            );
        }
    }

    #[test]
    fn analytic_beats_classic_calibration() {
        for (eps, delta) in [(0.3, 1e-5), (0.9, 1e-6), (0.5, 1e-7)] {
            let analytic = gaussian_sigma(eps, delta).unwrap();
            let classic = classic_gaussian_sigma(eps, delta).unwrap();
            assert!(
                analytic < classic,
                "eps {eps}: analytic {analytic} vs classic {classic}"
            );
        }
    }

    #[test]
    fn gaussian_epsilon_inverts_delta() {
        let sigma = 1.2;
        let eps = gaussian_epsilon(sigma, 1e-5).unwrap();
        let d = gaussian_delta(sigma, eps).unwrap();
        assert!((d - 1e-5).abs() < 1e-12, "delta {d}");
    }

    #[test]
    fn calibration_inverts_epsilon() {
        // σ from the calibrator must reproduce the target ε (within the
        // bisection tolerance) when fed back through the accountant.
        let (target, delta, q, steps) = (2.0, 1e-5, 0.01, 60 * 234);
        let sigma = calibrate_noise(AccountantKind::Rdp, target, delta, q, steps).unwrap();
        let eps = event_epsilon(
            AccountantKind::Rdp,
            &DpEvent::dp_sgd(q, sigma, steps),
            delta,
        )
        .unwrap();
        assert!(
            eps <= target,
            "calibrated eps {eps} exceeds target {target}"
        );
        assert!(
            eps > target * 0.97,
            "calibrated eps {eps} overshoots target {target}"
        );
    }

    #[test]
    fn pld_calibration_needs_less_noise() {
        let (target, delta, q, steps) = (2.0, 1e-5, 0.01, 2_000);
        let rdp = calibrate_noise(AccountantKind::Rdp, target, delta, q, steps).unwrap();
        let pld = calibrate_noise(AccountantKind::Pld, target, delta, q, steps).unwrap();
        assert!(pld <= rdp, "pld sigma {pld} vs rdp sigma {rdp}");
    }

    #[test]
    fn bad_targets_are_typed_errors() {
        assert!(matches!(
            calibrate_noise(AccountantKind::Rdp, 0.0, 1e-5, 0.01, 100),
            Err(AccountError::InvalidParameter(_))
        ));
        assert!(matches!(
            calibrate_noise(AccountantKind::Rdp, 2.0, 1.5, 0.01, 100),
            Err(AccountError::InvalidParameter(_))
        ));
        assert!(matches!(
            calibrate_noise(AccountantKind::Rdp, 2.0, 1e-5, 0.01, 0),
            Err(AccountError::InvalidParameter(_))
        ));
        // An absurdly tight target exceeds the sigma bracket.
        assert!(matches!(
            calibrate_noise(AccountantKind::Rdp, 1e-6, 1e-12, 0.5, 1_000_000),
            Err(AccountError::UnachievableTarget(_))
        ));
        assert!(matches!(
            gaussian_sigma(-1.0, 1e-5),
            Err(AccountError::InvalidParameter(_))
        ));
    }
}

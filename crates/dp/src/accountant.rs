//! Rényi differential privacy accounting for the subsampled Gaussian
//! mechanism (the "moments accountant" lineage: Abadi et al. CCS'16,
//! Mironov et al. 2019).
//!
//! DP-SGD's output at each step is the Gaussian mechanism applied to a
//! Poisson-subsampled sum of clipped per-example gradients. Its Rényi
//! divergence at integer order `α` is upper-bounded by
//!
//! ```text
//! RDP(α) = 1/(α−1) · ln Σ_{k=0}^{α} C(α,k)·(1−q)^{α−k}·q^k·exp((k²−k)/(2σ²))
//! ```
//!
//! where `q` is the sampling rate and `σ` the noise multiplier. RDP composes
//! additively over `T` steps, and converts to (ε, δ)-DP via
//! `ε = min_α [ T·RDP(α) + ln(1/δ)/(α−1) ]` — the composition and the
//! conversion live in [`crate::RdpEventAccountant`]; this module holds
//! only the per-step bound.

/// The per-step RDP of the Poisson-subsampled Gaussian mechanism at
/// integer order `α` — the bound behind the event-tree accountant in
/// [`crate::event`].
///
/// # Panics
///
/// Panics if `alpha < 2` (the bound below is for integer orders ≥ 2).
pub(crate) fn subsampled_gaussian_rdp(q: f64, sigma: f64, alpha: u32) -> f64 {
    assert!(alpha >= 2, "RDP orders start at 2");
    if (q - 1.0).abs() < f64::EPSILON {
        // No subsampling: plain Gaussian mechanism, RDP(α) = α/(2σ²).
        return f64::from(alpha) / (2.0 * sigma * sigma);
    }
    // log-sum-exp over k of:
    //   ln C(α,k) + (α−k)·ln(1−q) + k·ln q + (k²−k)/(2σ²)
    let a = f64::from(alpha);
    let terms: Vec<f64> = (0..=alpha)
        .map(|k| {
            let kf = f64::from(k);
            ln_binomial(alpha, k)
                + (a - kf) * (1.0 - q).ln()
                + kf * q.ln()
                + (kf * kf - kf) / (2.0 * sigma * sigma)
        })
        .collect();
    let log_sum = log_sum_exp(&terms);
    (log_sum / (a - 1.0)).max(0.0)
}

/// `ln C(n, k)` computed by summing logarithms (exact enough for n ≤ 10⁴).
fn ln_binomial(n: u32, k: u32) -> f64 {
    let k = k.min(n - k.min(n));
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += (f64::from(n - i)).ln() - (f64::from(i + 1)).ln();
    }
    acc
}

/// Numerically stable `ln Σ exp(xᵢ)` (shared with the event accountant).
pub(crate) fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event_epsilon, AccountantKind, DpEvent};
    use diva_tensor::DivaRng;

    /// ε of `steps` DP-SGD steps at `(q, σ)` under the RDP accountant.
    fn rdp_epsilon(q: f64, sigma: f64, steps: u64, delta: f64) -> f64 {
        event_epsilon(
            AccountantKind::Rdp,
            &DpEvent::dp_sgd(q, sigma, steps),
            delta,
        )
        .unwrap()
    }

    #[test]
    fn full_batch_matches_gaussian_closed_form() {
        // q = 1 degenerates to the plain Gaussian mechanism: RDP(α) = α/(2σ²).
        for alpha in [2u32, 8, 64] {
            let expected = f64::from(alpha) / (2.0 * 4.0);
            assert!((subsampled_gaussian_rdp(1.0, 2.0, alpha) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn alpha_two_matches_closed_form() {
        // RDP(2) = ln(1 + q²(e^{1/σ²} − 1)).
        let (q, sigma): (f64, f64) = (0.02, 1.3);
        let expected = (1.0 + q * q * ((1.0 / (sigma * sigma)).exp() - 1.0)).ln();
        assert!((subsampled_gaussian_rdp(q, sigma, 2) - expected).abs() < 1e-9);
    }

    /// Per-step RDP is non-negative and non-decreasing in the order α (a
    /// known property of Rényi divergence the log-sum-exp implementation
    /// must keep), across seeded random `(q, σ)` draws.
    #[test]
    fn rdp_is_nonnegative_and_monotone_in_order() {
        let mut gen = DivaRng::seed_from_u64(0xd3);
        for _ in 0..20 {
            let q = 0.001 + 0.3 * f64::from(gen.uniform(0.0, 1.0));
            let sigma = 0.5 + 2.0 * f64::from(gen.uniform(0.0, 1.0));
            let mut prev = 0.0;
            for alpha in [2u32, 4, 8, 16, 32, 64, 128] {
                let rdp = subsampled_gaussian_rdp(q, sigma, alpha);
                assert!(rdp >= 0.0, "negative RDP at alpha={alpha}");
                assert!(
                    rdp >= prev - 1e-12,
                    "RDP decreasing in alpha: q={q} sigma={sigma} alpha={alpha}"
                );
                prev = rdp;
            }
        }
    }

    #[test]
    fn epsilon_grows_with_steps() {
        let e1 = rdp_epsilon(0.01, 1.1, 100, 1e-5);
        let e2 = rdp_epsilon(0.01, 1.1, 1_000, 1e-5);
        let e3 = rdp_epsilon(0.01, 1.1, 10_000, 1e-5);
        assert!(e1 < e2 && e2 < e3, "{e1} {e2} {e3}");
    }

    #[test]
    fn epsilon_shrinks_with_noise() {
        let steps = 1_000;
        let e_low = rdp_epsilon(0.01, 0.8, steps, 1e-5);
        let e_high = rdp_epsilon(0.01, 2.0, steps, 1e-5);
        assert!(e_high < e_low);
    }

    #[test]
    fn epsilon_shrinks_with_sampling_rate() {
        let steps = 1_000;
        let e_small_q = rdp_epsilon(0.001, 1.1, steps, 1e-5);
        let e_large_q = rdp_epsilon(0.1, 1.1, steps, 1e-5);
        assert!(e_small_q < e_large_q);
    }

    #[test]
    fn epsilon_in_literature_ballpark() {
        // A canonical MNIST-like configuration: q = 256/60000, σ = 1.1,
        // 60 epochs. Published DP-SGD results report ε ≈ 2–4 at δ = 1e-5.
        let q = 256.0 / 60_000.0;
        let steps = (60_000 / 256) * 60;
        let eps = rdp_epsilon(q, 1.1, steps as u64, 1e-5);
        assert!((1.0..6.0).contains(&eps), "epsilon {eps} outside ballpark");
    }

    #[test]
    fn ln_binomial_small_values() {
        assert!((ln_binomial(5, 2) - (10.0f64).ln()).abs() < 1e-12);
        assert!((ln_binomial(10, 0)).abs() < 1e-12);
        assert!((ln_binomial(10, 10)).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_is_stable() {
        let v = log_sum_exp(&[-1000.0, -1000.0]);
        assert!((v - (-1000.0 + (2.0f64).ln())).abs() < 1e-9);
    }
}

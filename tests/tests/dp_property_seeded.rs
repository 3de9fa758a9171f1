//! Seeded property tests for the privacy accountant and the clipping /
//! reweighting machinery — the DP-side contract that guards the fused
//! convolution backward. Configurations are drawn from a seeded generator
//! (no proptest in the approved dependency set), so every run checks the
//! same deterministic sample:
//!
//! * ε is monotone increasing in steps and monotone decreasing in σ, for
//!   random `(q, σ, steps)` draws.
//! * Clip factors never exceed 1, never vanish for positive norms, and
//!   always bring the clipped norm under the bound.
//! * DP-SGD(R)'s fused reweighted backward (norms-only pass + reweighted
//!   per-batch pass) matches the two-pass reference that materializes
//!   per-example gradients and reduces them — on CNNs, so the shared patch
//!   buffer and the per-example K panels of the weight-gradient GEMM sit
//!   on the tested path.
//! * The counter-based Gaussian noise of the mechanism is standard normal:
//!   moments, a Kolmogorov–Smirnov test against Φ, and the 3σ tail mass.

use diva_dp::{clip_factors, event_epsilon, AccountantKind, DpEvent};
use diva_nn::{GradMode, Layer, Network};
use diva_tensor::{add_gaussian_noise, softmax_cross_entropy, DivaRng, Tensor};

/// ε of `steps` DP-SGD steps at `(q, σ)` under the RDP accountant.
fn rdp_epsilon(q: f64, sigma: f64, steps: u64, delta: f64) -> f64 {
    event_epsilon(
        AccountantKind::Rdp,
        &DpEvent::dp_sgd(q, sigma, steps),
        delta,
    )
    .unwrap()
}

/// ε must grow strictly with composition length for any valid mechanism.
#[test]
fn epsilon_is_monotone_in_steps() {
    let mut gen = DivaRng::seed_from_u64(0xd1);
    for _ in 0..20 {
        let q = 0.001 + 0.2 * f64::from(gen.uniform(0.0, 1.0));
        let sigma = 0.5 + 2.5 * f64::from(gen.uniform(0.0, 1.0));
        let delta = 1e-5;
        let mut prev = 0.0;
        for steps in [50u64, 200, 800, 3200, 12800] {
            let eps = rdp_epsilon(q, sigma, steps, delta);
            assert!(
                eps > prev,
                "epsilon not increasing in steps: q={q} sigma={sigma} steps={steps}: \
                 {eps} <= {prev}"
            );
            prev = eps;
        }
    }
}

/// More noise can never cost more privacy: ε is non-increasing in σ.
#[test]
fn epsilon_is_monotone_in_sigma() {
    let mut gen = DivaRng::seed_from_u64(0xd2);
    for _ in 0..20 {
        let q = 0.001 + 0.1 * f64::from(gen.uniform(0.0, 1.0));
        let steps = 100 + gen.index(5_000) as u64;
        let delta = 1e-5;
        let mut prev = f64::INFINITY;
        for sigma in [0.6, 0.9, 1.4, 2.2, 3.5] {
            let eps = rdp_epsilon(q, sigma, steps, delta);
            assert!(
                eps < prev,
                "epsilon not decreasing in sigma: q={q} steps={steps} sigma={sigma}: \
                 {eps} >= {prev}"
            );
            prev = eps;
        }
    }
}

/// Clip factors are in (0, 1], equal 1 exactly when the norm is within the
/// bound, and always bring the clipped norm under `C` — across random norm
/// magnitudes spanning twelve orders.
#[test]
fn clip_factors_stay_in_unit_interval_and_bound_norms() {
    let mut gen = DivaRng::seed_from_u64(0xd4);
    for _ in 0..40 {
        let c = 10f64.powf(f64::from(gen.uniform(-3.0, 3.0)));
        let n = 1 + gen.index(32);
        let sq_norms: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(f64::from(gen.uniform(-6.0, 6.0))))
            .collect();
        let summary = clip_factors(&sq_norms, c);
        assert_eq!(summary.factors.len(), n);
        let mut clipped = 0;
        for (i, (&f, &sq)) in summary.factors.iter().zip(&sq_norms).enumerate() {
            assert!(f > 0.0 && f <= 1.0, "factor {f} outside (0,1] at {i}");
            let norm = sq.sqrt();
            assert!(
                norm * f <= c * (1.0 + 1e-12),
                "clipped norm {} exceeds bound {c}",
                norm * f
            );
            if norm <= c {
                assert_eq!(f, 1.0, "in-bound example {i} was scaled");
            } else {
                clipped += 1;
            }
        }
        assert_eq!(summary.clipped_count, clipped);
    }
}

fn random_cnn(gen: &mut DivaRng) -> (Network, usize, usize, usize) {
    let cin = 1 + gen.index(3);
    let cout = 2 + gen.index(5);
    let hw = 6 + gen.index(5); // 6..=10
    let classes = 3;
    let seed = gen.index(1_000) as u64;
    let mut rng = DivaRng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::conv2d(cin, cout, 3, 1, 1, hw, hw, &mut rng),
        Layer::relu(),
        Layer::flatten(),
        Layer::dense(cout * hw * hw, classes, true, &mut rng),
    ]);
    (net, cin, hw, classes)
}

/// The core DP-SGD(R) identity on CNNs: clip factors from the `NormOnly`
/// pass, applied as per-example loss scales through the fused reweighted
/// backward, reproduce the two-pass reference (materialize per-example
/// gradients, scale, reduce) — and the `NormOnly` norms themselves match
/// the materialized ones.
#[test]
fn reweighted_backward_matches_two_pass_reference_on_cnns() {
    let mut gen = DivaRng::seed_from_u64(0xd5);
    for case in 0..8 {
        let (net, cin, hw, classes) = random_cnn(&mut gen);
        let b = 1 + gen.index(6);
        let clip = 0.05 + 2.0 * f64::from(gen.uniform(0.0, 1.0));
        let mut rng = DivaRng::seed_from_u64(0x5eed ^ case);
        let x = Tensor::uniform(&[b, cin, hw, hw], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..b).map(|i| i % classes).collect();
        let (y, caches) = net.forward(&x);
        let loss = softmax_cross_entropy(&y, &labels);

        // Pass 1: norms only (fused implicit-lowering path).
        let norm_pass = net.backward(&caches, &loss.grad_logits, GradMode::NormOnly);
        let norms = norm_pass.per_example_sq_norms();

        // Reference: materialized per-example gradients.
        let per_ex = net.backward(&caches, &loss.grad_logits, GradMode::PerExample);
        let ref_norms = per_ex.per_example_sq_norms();
        for (i, (a, r)) in norms.iter().zip(&ref_norms).enumerate() {
            assert!(
                (a - r).abs() <= 1e-5 * r.max(1.0),
                "case {case}: norm {i} diverged: {a} vs {r}"
            );
        }

        let summary = clip_factors(&norms, clip);
        // Pass 2: fused reweighted per-batch backward.
        let fused = net.backward_reweighted(&caches, &loss.grad_logits, &summary.factors);
        // Reference: scale the materialized per-example gradients, reduce.
        let reference = per_ex.weighted_reduce(&summary.factors);
        let a = fused.flatten_per_batch();
        let r = reference.flatten_per_batch();
        assert_eq!(a.len(), r.len());
        for (i, (fa, fr)) in a.iter().zip(&r).enumerate() {
            assert!(
                (fa - fr).abs() <= 1e-3,
                "case {case}: reweighted grad {i} diverged: {fa} vs {fr}"
            );
        }
    }
}

/// Samples per key of the noise tests, and the keys.
const NOISE_N: usize = 1 << 18;
const NOISE_KEYS: [u64; 5] = [0, 1, 0xd6, 0x5eed_cafe, u64::MAX];

/// `N(0, 1)` noise of one key, as the mechanism adds it to a zero gradient.
fn standard_noise(key: u64) -> Vec<f64> {
    let mut z = vec![0.0f32; NOISE_N];
    add_gaussian_noise(&mut z, 1.0, key, 0);
    z.into_iter().map(f64::from).collect()
}

/// The standard normal CDF by Marsaglia's series
/// `Φ(x) = ½ + φ(x)·(x + x³/3 + x⁵/(3·5) + …)`, whose terms are all of one
/// sign (absolute error ≈ 1e-15).
fn normal_cdf(x: f64) -> f64 {
    let (q, mut term, mut sum, mut i) = (x * x, x, x, 1.0);
    loop {
        i += 2.0;
        term *= q / i;
        let next = sum + term;
        if next == sum {
            break;
        }
        sum = next;
    }
    0.5 + sum * (-0.5 * q - 0.5 * (2.0 * std::f64::consts::PI).ln()).exp()
}

/// For every key, the noise's sample mean and variance sit within five
/// standard errors of 0 and 1, and its one-sample Kolmogorov–Smirnov
/// statistic against Φ is below the α = 0.001 critical value
/// `√(−ln(α/2)/2)/√n`.
#[test]
fn counter_noise_is_standard_normal() {
    let n = NOISE_N as f64;
    let critical = (-(0.001f64 / 2.0).ln() / 2.0).sqrt() / n.sqrt();
    for key in NOISE_KEYS {
        let mut z = standard_noise(key);
        let mean = z.iter().sum::<f64>() / n;
        let var = z.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!(mean.abs() < 5.0 / n.sqrt(), "key {key}: mean {mean}");
        assert!(
            (var - 1.0).abs() < 5.0 * (2.0 / (n - 1.0)).sqrt(),
            "key {key}: variance {var}"
        );
        z.sort_by(f64::total_cmp);
        let ks = z
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let cdf = normal_cdf(v);
                ((i + 1) as f64 / n - cdf).max(cdf - i as f64 / n)
            })
            .fold(0.0, f64::max);
        assert!(ks < critical, "key {key}: KS {ks} ≥ {critical}");
    }
}

/// The mass beyond three standard deviations, pooled over the keys, is
/// within five binomial standard errors of `2(1 − Φ(3)) ≈ 0.0027`.
#[test]
fn counter_noise_has_gaussian_tails() {
    let p = 2.0 * (1.0 - normal_cdf(3.0));
    let total = (NOISE_N * NOISE_KEYS.len()) as f64;
    let beyond = NOISE_KEYS
        .iter()
        .map(|&key| standard_noise(key).iter().filter(|v| v.abs() > 3.0).count())
        .sum::<usize>() as f64;
    let sigma = (p * (1.0 - p) / total).sqrt();
    assert!(
        (beyond / total - p).abs() < 5.0 * sigma,
        "|z| > 3 mass {} vs {p} ± {}",
        beyond / total,
        5.0 * sigma
    );
}

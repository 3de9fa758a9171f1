//! Seeded property tests for the privacy-accounting engine — the
//! cross-check layer between the two accountants and around the PLD/FFT
//! machinery. Configurations are drawn from a seeded generator (no
//! proptest in the approved dependency set), so every run checks the same
//! deterministic sample:
//!
//! * **PLD ≤ RDP**: the PLD accountant is tight up to discretization, the
//!   RDP conversion carries slack — ε_PLD may never exceed ε_RDP beyond a
//!   discretization-sized tolerance, anywhere on the grid.
//! * ε is monotone in steps, in 1/σ and in q, under *both* accountants.
//! * δ(ε(δ)) round-trips through the PLD's closed-form segment inversion.
//! * `compose(event, k)` equals `k`-fold sequential self-composition
//!   within discretization error (FFT binary exponentiation vs the
//!   definition).
//! * Batch ε is bitwise independent of input order and of the installed
//!   thread count — the workspace determinism contract extended to the
//!   accounting engine.

use diva_dp::{batch_epsilons, event_epsilon, Accountant, AccountantKind, DpEvent, PldAccountant};
use diva_tensor::{Backend, DivaRng};

const DELTA: f64 = 1e-5;

/// A random DP-SGD configuration in the regime the paper trains in.
fn random_config(gen: &mut DivaRng) -> (f64, f64, u64) {
    let q = 0.002 + 0.05 * f64::from(gen.uniform(0.0, 1.0));
    let sigma = 0.7 + 2.3 * f64::from(gen.uniform(0.0, 1.0));
    let steps = 100 + gen.index(3_000) as u64;
    (q, sigma, steps)
}

/// The engine's central invariant: PLD accounting is never looser than
/// RDP. The tolerance covers the PLD's O(√k·Δ) discretization error only —
/// a sign error or pessimism bug in either accountant trips this across
/// the whole grid.
#[test]
fn pld_epsilon_never_exceeds_rdp_epsilon() {
    let mut gen = DivaRng::seed_from_u64(0xac0);
    for case in 0..12 {
        let (q, sigma, steps) = random_config(&mut gen);
        let event = DpEvent::dp_sgd(q, sigma, steps);
        let rdp = event_epsilon(AccountantKind::Rdp, &event, DELTA).unwrap();
        let pld = event_epsilon(AccountantKind::Pld, &event, DELTA).unwrap();
        let tol = 1e-2 * rdp.max(1.0);
        assert!(
            pld <= rdp + tol,
            "case {case}: PLD looser than RDP at q={q} sigma={sigma} steps={steps}: \
             pld={pld} rdp={rdp}"
        );
        assert!(pld > 0.0, "case {case}: vanishing epsilon");
    }
}

/// ε grows with composition length under both accountants.
#[test]
fn epsilon_is_monotone_in_steps_both_accountants() {
    let mut gen = DivaRng::seed_from_u64(0xac1);
    for _ in 0..6 {
        let q = 0.002 + 0.03 * f64::from(gen.uniform(0.0, 1.0));
        let sigma = 0.8 + 1.5 * f64::from(gen.uniform(0.0, 1.0));
        let step = DpEvent::poisson_sampled(q, DpEvent::gaussian(sigma));
        for kind in [AccountantKind::Rdp, AccountantKind::Pld] {
            let counts = [100u64, 400, 1_600, 6_400];
            let eps = batch_epsilons(kind, &step, &counts, DELTA).unwrap();
            for (w, pair) in eps.windows(2).enumerate() {
                assert!(
                    pair[0] < pair[1] + 1e-9,
                    "{kind:?}: epsilon not increasing at q={q} sigma={sigma} \
                     ({} steps -> {} steps): {} vs {}",
                    counts[w],
                    counts[w + 1],
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}

/// More noise can never cost more privacy, under both accountants.
#[test]
fn epsilon_is_monotone_in_sigma_both_accountants() {
    let mut gen = DivaRng::seed_from_u64(0xac2);
    for _ in 0..6 {
        let q = 0.002 + 0.03 * f64::from(gen.uniform(0.0, 1.0));
        let steps = 200 + gen.index(2_000) as u64;
        for kind in [AccountantKind::Rdp, AccountantKind::Pld] {
            let mut prev = f64::INFINITY;
            for sigma in [0.7, 1.0, 1.5, 2.5] {
                let eps = event_epsilon(kind, &DpEvent::dp_sgd(q, sigma, steps), DELTA).unwrap();
                assert!(
                    eps < prev + 1e-9,
                    "{kind:?}: epsilon not decreasing in sigma at q={q} steps={steps} \
                     sigma={sigma}: {eps} >= {prev}"
                );
                prev = eps;
            }
        }
    }
}

/// Seeing each example more often costs more privacy: ε is monotone in q.
#[test]
fn epsilon_is_monotone_in_sampling_rate_both_accountants() {
    let mut gen = DivaRng::seed_from_u64(0xac3);
    for _ in 0..6 {
        let sigma = 0.8 + 1.5 * f64::from(gen.uniform(0.0, 1.0));
        let steps = 200 + gen.index(2_000) as u64;
        for kind in [AccountantKind::Rdp, AccountantKind::Pld] {
            let mut prev = 0.0;
            for q in [0.002, 0.008, 0.02, 0.06] {
                let eps = event_epsilon(kind, &DpEvent::dp_sgd(q, sigma, steps), DELTA).unwrap();
                assert!(
                    eps > prev - 1e-9,
                    "{kind:?}: epsilon not increasing in q at sigma={sigma} steps={steps} \
                     q={q}: {eps} <= {prev}"
                );
                prev = eps;
            }
        }
    }
}

/// The PLD's closed-form ε(δ) inverts its own δ(ε): querying δ at the
/// reported ε lands back on the target (the inversion is exact on a grid
/// segment, so this holds to round-off, not merely to discretization).
#[test]
fn delta_of_epsilon_round_trips_through_pld() {
    let mut gen = DivaRng::seed_from_u64(0xac4);
    for case in 0..8 {
        let (q, sigma, steps) = random_config(&mut gen);
        let mut acc = PldAccountant::new();
        acc.compose(&DpEvent::dp_sgd(q, sigma, steps), 1).unwrap();
        for delta in [1e-4, 1e-6] {
            let eps = acc.epsilon(delta).unwrap();
            assert!(eps >= 0.0);
            if eps == 0.0 {
                // δ(0) was already at or below the target; nothing to invert.
                assert!(acc.delta(0.0).unwrap() <= delta);
                continue;
            }
            let back = acc.delta(eps).unwrap();
            assert!(
                (back - delta).abs() <= 1e-6 * delta + 1e-15,
                "case {case}: q={q} sigma={sigma} steps={steps}: \
                 delta {delta} -> eps {eps} -> delta {back}"
            );
        }
    }
}

/// `compose(event, k)` must equal composing the event k times sequentially
/// — binary exponentiation and its FFT convolutions against the
/// definition. Agreement is within discretization error (the two take
/// different truncation paths), not bitwise.
#[test]
fn composition_is_additive_within_discretization_error() {
    let mut gen = DivaRng::seed_from_u64(0xac5);
    for case in 0..5 {
        let q = 0.005 + 0.03 * f64::from(gen.uniform(0.0, 1.0));
        let sigma = 0.8 + 1.2 * f64::from(gen.uniform(0.0, 1.0));
        let k = 3 + gen.index(6) as u64;
        let step = DpEvent::poisson_sampled(q, DpEvent::gaussian(sigma));

        let mut bulk = PldAccountant::new();
        bulk.compose(&step, k).unwrap();
        let mut seq = PldAccountant::new();
        for _ in 0..k {
            seq.compose(&step, 1).unwrap();
        }
        let e_bulk = bulk.epsilon(DELTA).unwrap();
        let e_seq = seq.epsilon(DELTA).unwrap();
        assert!(
            (e_bulk - e_seq).abs() <= 1e-4 * e_seq.max(1.0),
            "case {case}: q={q} sigma={sigma} k={k}: bulk {e_bulk} vs sequential {e_seq}"
        );

        // And the RDP accountant is exactly additive (pure arithmetic).
        let mut rdp_bulk = diva_dp::RdpEventAccountant::new();
        rdp_bulk.compose(&step, k).unwrap();
        let mut rdp_seq = diva_dp::RdpEventAccountant::new();
        for _ in 0..k {
            rdp_seq.compose(&step, 1).unwrap();
        }
        let e1 = rdp_bulk.epsilon(DELTA).unwrap();
        let e2 = rdp_seq.epsilon(DELTA).unwrap();
        assert!(
            (e1 - e2).abs() <= 1e-12 * e1.max(1.0),
            "case {case}: RDP bulk {e1} vs sequential {e2}"
        );
    }
}

/// Batch ε is bitwise identical across input orderings and across
/// installed thread counts — accounting inherits the workspace determinism
/// contract (it is single-threaded by construction; this is the regression
/// gate that keeps it so).
#[test]
fn batch_epsilon_is_bit_stable_across_order_and_threads() {
    let event = DpEvent::poisson_sampled(0.01, DpEvent::gaussian(1.1));
    let counts = [1_500u64, 250, 750, 250, 3_000];
    let mut sorted = counts;
    sorted.sort_unstable();

    for kind in [AccountantKind::Rdp, AccountantKind::Pld] {
        let serial =
            Backend::serial().install(|| batch_epsilons(kind, &event, &counts, DELTA).unwrap());
        let auto =
            Backend::auto().install(|| batch_epsilons(kind, &event, &counts, DELTA).unwrap());
        assert_eq!(
            serial, auto,
            "{kind:?}: thread count changed accounting bits"
        );

        let shuffled = batch_epsilons(kind, &event, &sorted, DELTA).unwrap();
        for (i, &c) in counts.iter().enumerate() {
            let j = sorted.iter().position(|&s| s == c).unwrap();
            assert_eq!(
                serial[i].to_bits(),
                shuffled[j].to_bits(),
                "{kind:?}: input order changed accounting bits at count {c}"
            );
        }
        // Duplicate counts resolve to identical bits.
        assert_eq!(serial[1].to_bits(), serial[3].to_bits());
    }
}

/// Heterogeneous trees: a composed (Gaussian + subsampled-Gaussian +
/// Laplace) release accounts under both accountants, PLD at or below RDP.
#[test]
fn heterogeneous_composition_keeps_the_pld_rdp_ordering() {
    let mut gen = DivaRng::seed_from_u64(0xac7);
    for case in 0..5 {
        let sigma = 1.0 + 1.5 * f64::from(gen.uniform(0.0, 1.0));
        let b = 2.0 + 3.0 * f64::from(gen.uniform(0.0, 1.0));
        let q = 0.005 + 0.02 * f64::from(gen.uniform(0.0, 1.0));
        let k = 20 + gen.index(200) as u64;
        let event = DpEvent::composed(vec![
            DpEvent::gaussian(sigma),
            DpEvent::laplace(b),
            DpEvent::dp_sgd(q, sigma, k),
        ]);
        let rdp = event_epsilon(AccountantKind::Rdp, &event, DELTA).unwrap();
        let pld = event_epsilon(AccountantKind::Pld, &event, DELTA).unwrap();
        assert!(
            pld <= rdp + 1e-2 * rdp.max(1.0),
            "case {case}: heterogeneous PLD {pld} looser than RDP {rdp}"
        );
    }
}

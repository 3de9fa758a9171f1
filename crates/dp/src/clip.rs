//! Per-example gradient clipping (Algorithm 1 lines 22–23).

/// Summary statistics of one clipping pass, useful for monitoring training.
#[derive(Clone, Debug, PartialEq)]
pub struct ClipSummary {
    /// Per-example scale factors `1 / max(1, nᵢ / C)`.
    pub factors: Vec<f64>,
    /// Per-example gradient L2 norms before clipping.
    pub norms: Vec<f64>,
    /// Number of examples whose gradient was actually clipped (`nᵢ > C`).
    pub clipped_count: usize,
    /// Median pre-clip norm (0 for an empty batch).
    pub median_norm: f64,
}

/// Computes per-example clip factors from squared gradient norms.
///
/// Given per-example *squared* L2 norms `sq_norms` and the clipping bound
/// `C`, returns `wᵢ = 1 / max(1, nᵢ / C)` so that `wᵢ · gᵢ` has norm at most
/// `C` (paper Algorithm 1 line 23).
///
/// # Panics
///
/// Panics if `clip_norm` is not strictly positive or a squared norm is
/// negative/NaN.
pub fn clip_factors(sq_norms: &[f64], clip_norm: f64) -> ClipSummary {
    assert!(
        clip_norm > 0.0 && clip_norm.is_finite(),
        "clip norm must be positive and finite, got {clip_norm}"
    );
    let mut factors = Vec::with_capacity(sq_norms.len());
    let mut norms = Vec::with_capacity(sq_norms.len());
    let mut clipped_count = 0;
    for &sq in sq_norms {
        assert!(sq >= 0.0, "negative squared norm {sq}");
        let n = sq.sqrt();
        norms.push(n);
        if n > clip_norm {
            clipped_count += 1;
            factors.push(clip_norm / n);
        } else {
            factors.push(1.0);
        }
    }
    let median_norm = median(&norms);
    ClipSummary {
        factors,
        norms,
        clipped_count,
        median_norm,
    }
}

/// The median of `values` (mean of the two middle values for an even
/// count, 0 for none).
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_clamp_to_clip_norm() {
        let summary = clip_factors(&[4.0, 0.25, 1.0], 1.0);
        // norms are 2.0, 0.5, 1.0
        assert_eq!(summary.factors, vec![0.5, 1.0, 1.0]);
        assert_eq!(summary.clipped_count, 1);
    }

    #[test]
    fn clipped_norm_never_exceeds_bound() {
        let c = 0.7;
        for sq in [0.0, 0.01, 0.49, 0.5, 100.0, 1e8] {
            let s = clip_factors(&[sq], c);
            let clipped = s.norms[0] * s.factors[0];
            assert!(clipped <= c + 1e-12, "clipped norm {clipped} exceeds {c}");
        }
    }

    #[test]
    fn unclipped_examples_are_untouched() {
        let s = clip_factors(&[0.36], 1.0); // norm 0.6 < 1.0
        assert_eq!(s.factors[0], 1.0);
        assert_eq!(s.clipped_count, 0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(clip_factors(&[1.0, 4.0, 9.0], 10.0).median_norm, 2.0);
        assert_eq!(clip_factors(&[1.0, 9.0], 10.0).median_norm, 2.0);
        assert_eq!(clip_factors(&[], 1.0).median_norm, 0.0);
    }

    #[test]
    #[should_panic(expected = "clip norm must be positive")]
    fn zero_clip_norm_panics() {
        let _ = clip_factors(&[1.0], 0.0);
    }
}

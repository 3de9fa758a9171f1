//! The benchmark's own statistics: percentiles with the tail rule, the
//! failure ratio, and the phase breakdown of a traced step.

/// How many samples must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `samples` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail of a latency distribution: the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples strictly beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at the tail percentile.
    pub value: f64,
    /// The percentile, `100 · (n − beyond) / n`.
    pub percentile: f64,
    /// The number of samples the distribution holds.
    pub samples: usize,
    /// The number of samples beyond the tail value (exactly
    /// [`TAIL_BEYOND`] unless the run was too short to have that many).
    pub beyond: usize,
}

/// The tail of `samples`: the `(TAIL_BEYOND + 1)`-th largest sample. A
/// distribution of `TAIL_BEYOND` samples or fewer has no such percentile;
/// its minimum is reported with the short `beyond` count, so the caller
/// can see the tail is not backed by enough samples.
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let beyond = TAIL_BEYOND.min(n - 1);
    let rank = n - beyond;
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond,
    }
}

/// Operations tried and how they ended. A refused operation (a 429/503
/// from the server, or per-layer numbers refused by a failed parity check)
/// counts as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations tried, output checks included.
    pub attempted: u64,
    /// Operations that failed outright.
    pub failed: u64,
    /// Operations that were refused.
    pub refused: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Failed => self.failed += 1,
            Outcome::Refused => self.refused += 1,
        }
    }

    /// Failed plus refused operations.
    pub fn not_ok(&self) -> u64 {
        self.failed + self.refused
    }

    /// `(failed + refused) / attempted`; 0 when nothing was attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.not_ok() as f64 / self.attempted as f64
        }
    }
}

/// How one operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and passed its check.
    Ok,
    /// Panicked, errored, or produced output that failed its check.
    Failed,
    /// Turned away without being served.
    Refused,
}

impl From<bool> for Outcome {
    fn from(ok: bool) -> Self {
        if ok {
            Outcome::Ok
        } else {
            Outcome::Failed
        }
    }
}

/// The DP phases of a training step, named with the
/// `diva_arch::ops::Phase` slugs where one fits.
pub const PHASES: [&str; 8] = [
    "fwd",
    "bwd_per_example_grad",
    "bwd_grad_norm",
    "bwd_grad_clip",
    "reduce",
    "bwd_per_batch_grad",
    "noise",
    "weight_update",
];

/// Per-step means of each phase over the traced steps, plus the part of
/// the step no phase covers.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseBreakdown {
    /// Mean milliseconds per step of each entry of [`PHASES`].
    pub phases_ms: [f64; PHASES.len()],
    /// Mean traced step, milliseconds.
    pub step_ms: f64,
    /// `step_ms` minus every phase.
    pub unattributed_ms: f64,
}

impl PhaseBreakdown {
    /// Averages `steps` traced steps whose phase totals are `phase_sums_ms`
    /// and whose whole-step total is `step_sum_ms`.
    pub fn from_sums(phase_sums_ms: [f64; PHASES.len()], step_sum_ms: f64, steps: usize) -> Self {
        let n = steps.max(1) as f64;
        let phases_ms = phase_sums_ms.map(|s| s / n);
        let step_ms = step_sum_ms / n;
        Self {
            phases_ms,
            step_ms,
            unattributed_ms: step_ms - phases_ms.iter().sum::<f64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.samples, 200);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), 10);

        // Order of arrival does not matter.
        let mut shuffled = samples.clone();
        shuffled.reverse();
        assert_eq!(tail(&shuffled), t);

        let t = tail(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));
    }

    #[test]
    fn short_runs_report_how_few_samples_back_the_tail() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.samples, t.beyond), (1.0, 3, 2));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fail_ratio_counts_failed_and_refused_operations() {
        let mut tally = Tally::default();
        for outcome in [
            Outcome::Ok,
            Outcome::Failed,
            Outcome::Refused,
            Outcome::Ok,
            Outcome::from(true),
            Outcome::from(false),
            Outcome::Refused,
            Outcome::Ok,
        ] {
            tally.record(outcome);
        }
        assert_eq!(tally.attempted, 8);
        assert_eq!((tally.failed, tally.refused, tally.not_ok()), (2, 2, 4));
        assert_eq!(tally.fail_ratio(), 0.5);
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }

    #[test]
    fn phases_plus_unattributed_sum_to_the_traced_step() {
        let sums = [30.0, 80.0, 20.0, 0.5, 25.0, 0.0, 28.0, 4.0];
        let b = PhaseBreakdown::from_sums(sums, 200.0, 4);
        assert_eq!(b.step_ms, 50.0);
        assert_eq!(b.phases_ms[1], 20.0);
        let total = b.phases_ms.iter().sum::<f64>() + b.unattributed_ms;
        assert!(
            (total - b.step_ms).abs() < 1e-12,
            "{total} vs {}",
            b.step_ms
        );
        assert!((b.unattributed_ms - 3.125).abs() < 1e-12);
    }
}

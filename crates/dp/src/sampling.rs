//! Poisson subsampling — the sampling scheme the RDP accountant actually
//! analyzes.
//!
//! DP-SGD's privacy analysis (and our [`crate::RdpEventAccountant`]) assumes
//! each example joins the mini-batch *independently* with probability `q`,
//! not fixed-size shuffled batches. Frameworks often approximate; this module
//! provides the real thing so the algorithmic reproduction is faithful.

use diva_tensor::{DivaRng, Tensor};

use crate::synthetic::Dataset;

/// Draws a Poisson-subsampled mini-batch: every example of `dataset` is
/// included independently with probability `q`.
///
/// Returns `None` when the draw selects no examples (expected with
/// probability `(1-q)^N`). DP-SGD's analysis treats that step as a
/// noise-only update: the parameters still move, by the noise alone. A
/// caller that skips the step instead releases unchanged parameters, which
/// no noise-only step can produce, so the accountant's ε no longer covers
/// the run. A trainer that takes the noise-only step is open work
/// (`ROADMAP.md`, item 6).
///
/// # Panics
///
/// Panics if `q` is outside `(0, 1]`.
pub fn poisson_sample(
    dataset: &Dataset,
    q: f64,
    rng: &mut DivaRng,
) -> Option<(Tensor, Vec<usize>)> {
    assert!(
        q > 0.0 && q <= 1.0,
        "sampling rate must be in (0,1], got {q}"
    );
    let selected: Vec<usize> = (0..dataset.len())
        .filter(|_| f64::from(rng.uniform(0.0, 1.0)) < q)
        .collect();
    if selected.is_empty() {
        return None;
    }
    let dims = dataset.inputs.shape().dims();
    let stride: usize = dims[1..].iter().product();
    let mut data = Vec::with_capacity(selected.len() * stride);
    let mut labels = Vec::with_capacity(selected.len());
    for &i in &selected {
        data.extend_from_slice(&dataset.inputs.data()[i * stride..(i + 1) * stride]);
        labels.push(dataset.labels[i]);
    }
    let mut batch_dims = vec![selected.len()];
    batch_dims.extend_from_slice(&dims[1..]);
    Some((Tensor::from_vec(data, &batch_dims), labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::make_blobs;

    #[test]
    fn sample_sizes_concentrate_around_qn() {
        let mut rng = DivaRng::seed_from_u64(40);
        let ds = make_blobs(1000, 4, 2, 0.1, &mut rng);
        let q = 0.1;
        let mut total = 0usize;
        let trials = 200;
        for _ in 0..trials {
            if let Some((x, labels)) = poisson_sample(&ds, q, &mut rng) {
                assert_eq!(x.shape().dim(0), labels.len());
                total += labels.len();
            }
        }
        let mean = total as f64 / trials as f64;
        // E[|batch|] = qN = 100; allow generous sampling slack.
        assert!((mean - 100.0).abs() < 10.0, "mean batch size {mean}");
    }

    #[test]
    fn q_one_selects_everything() {
        let mut rng = DivaRng::seed_from_u64(41);
        let ds = make_blobs(50, 3, 2, 0.1, &mut rng);
        let (x, labels) = poisson_sample(&ds, 1.0, &mut rng).expect("q=1 cannot be empty");
        assert_eq!(labels.len(), 50);
        assert_eq!(x.data(), ds.inputs.data());
        assert_eq!(labels, ds.labels);
    }

    #[test]
    fn tiny_q_often_returns_none() {
        let mut rng = DivaRng::seed_from_u64(42);
        let ds = make_blobs(5, 3, 2, 0.1, &mut rng);
        let nones = (0..200)
            .filter(|_| poisson_sample(&ds, 1e-3, &mut rng).is_none())
            .count();
        assert!(
            nones > 150,
            "expected mostly empty draws, got {nones} empties"
        );
    }

    #[test]
    fn samples_preserve_example_label_pairing() {
        let mut rng = DivaRng::seed_from_u64(43);
        let ds = make_blobs(100, 4, 4, 0.01, &mut rng);
        // With tight clusters, the dominant coordinate identifies the class.
        if let Some((x, labels)) = poisson_sample(&ds, 0.5, &mut rng) {
            for (row, &label) in (0..labels.len()).zip(&labels) {
                let features = &x.data()[row * 4..(row + 1) * 4];
                let argmax = features
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                assert_eq!(argmax, label, "row {row} mismatched");
            }
        }
    }
}

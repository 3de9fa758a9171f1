//! The Gaussian mechanism: `g + N(0, σ²C²I)` (Algorithm 1 line 24).

use diva_nn::{NetworkGrads, ParamGrads};
use diva_tensor::{add_gaussian_noise, DivaRng};

/// The Gaussian mechanism used by DP-SGD: adds isotropic noise with standard
/// deviation `noise_multiplier × clip_norm` to a (clipped, summed) gradient.
///
/// Each noising call draws one 64-bit key from the caller's [`DivaRng`];
/// the noise itself comes from the counter-based
/// [`diva_tensor::add_gaussian_noise`], so it is the same at every thread
/// count and runs in parallel on the installed backend.
///
/// # Example
///
/// ```
/// use diva_dp::GaussianMechanism;
/// use diva_tensor::DivaRng;
///
/// let mech = GaussianMechanism::new(1.1, 1.0);
/// let mut rng = DivaRng::seed_from_u64(0);
/// let mut grad = vec![0.0f32; 4];
/// mech.add_noise(&mut grad, &mut rng);
/// assert!(grad.iter().any(|&v| v != 0.0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaussianMechanism {
    noise_multiplier: f64,
    clip_norm: f64,
}

impl GaussianMechanism {
    /// Creates a mechanism with noise multiplier σ and sensitivity bound C.
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative or non-finite.
    pub fn new(noise_multiplier: f64, clip_norm: f64) -> Self {
        assert!(
            noise_multiplier >= 0.0 && noise_multiplier.is_finite(),
            "invalid noise multiplier {noise_multiplier}"
        );
        assert!(
            clip_norm > 0.0 && clip_norm.is_finite(),
            "invalid clip norm {clip_norm}"
        );
        Self {
            noise_multiplier,
            clip_norm,
        }
    }

    /// The noise standard deviation `σ·C`.
    pub fn noise_std(&self) -> f64 {
        self.noise_multiplier * self.clip_norm
    }

    /// Adds `N(0, (σC)²)` noise to every coordinate of a flat gradient,
    /// drawing one key from `rng` (none when `σ = 0`).
    pub fn add_noise(&self, grad: &mut [f32], rng: &mut DivaRng) {
        let std = self.noise_std();
        if std == 0.0 {
            return;
        }
        add_gaussian_noise(grad, std, rng.next_u64(), 0);
    }

    /// Adds noise to every per-batch tensor of a [`NetworkGrads`], drawing
    /// one key from `rng` (none when `σ = 0`).
    ///
    /// Per-batch tensor `j` (in layer order, then parameter order) is noised
    /// as stream `j` of that key, so the noise of its element `i` depends
    /// only on `(key, j, i)`: two calls with identically seeded generators
    /// on identically shaped gradients produce identical noise — the
    /// property the DP-SGD ≡ DP-SGD(R) equivalence tests rely on — however
    /// many threads either call runs on.
    ///
    /// # Panics
    ///
    /// Panics if any layer gradient is per-example (noise is only ever added
    /// after reduction).
    pub fn add_noise_to_grads(&self, grads: &mut NetworkGrads, rng: &mut DivaRng) {
        let std = self.noise_std();
        if std == 0.0 {
            return;
        }
        let key = rng.next_u64();
        let mut stream = 0;
        for layer in &mut grads.layers {
            match layer {
                ParamGrads::None => {}
                ParamGrads::PerBatch(tensors) => {
                    for t in tensors {
                        add_gaussian_noise(t.data_mut(), std, key, stream);
                        stream += 1;
                    }
                }
                other => panic!("noise must be added after reduction, got {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sigma_is_identity() {
        let mech = GaussianMechanism::new(0.0, 1.0);
        let mut rng = DivaRng::seed_from_u64(1);
        let mut g = vec![1.0f32, 2.0, 3.0];
        mech.add_noise(&mut g, &mut rng);
        assert_eq!(g, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn noise_std_scales_with_clip_norm() {
        assert_eq!(GaussianMechanism::new(2.0, 3.0).noise_std(), 6.0);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mech = GaussianMechanism::new(1.0, 1.0);
        let mut a = vec![0.0f32; 16];
        let mut b = vec![0.0f32; 16];
        mech.add_noise(&mut a, &mut DivaRng::seed_from_u64(7));
        mech.add_noise(&mut b, &mut DivaRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_std_is_close() {
        let mech = GaussianMechanism::new(1.5, 2.0); // std 3.0
        let mut rng = DivaRng::seed_from_u64(42);
        let mut g = vec![0.0f32; 100_000];
        mech.add_noise(&mut g, &mut rng);
        let mean: f64 = g.iter().map(|&v| f64::from(v)).sum::<f64>() / g.len() as f64;
        let var: f64 = g
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / g.len() as f64;
        assert!((var.sqrt() - 3.0).abs() < 0.05, "std was {}", var.sqrt());
    }

    #[test]
    #[should_panic(expected = "invalid noise multiplier")]
    fn negative_sigma_panics() {
        let _ = GaussianMechanism::new(-1.0, 1.0);
    }
}

//! Seedable randomness for experiments: uniform and Gaussian sampling.
//!
//! Implemented from scratch on xoshiro256++ (seeded through SplitMix64)
//! because no external `rand`/`rand_distr` crates are part of the approved
//! dependency set for this reproduction. The DP noise sampler
//! ([`crate::add_gaussian_noise`]) is counter-based and shares only
//! SplitMix64's mixer with this module.

/// A seedable random-number generator with a Gaussian sampler.
///
/// Wraps a local xoshiro256++ core (cloneable, so experiments can snapshot
/// generator state) and adds Box–Muller normal sampling.
///
/// All stochastic components of the repo (synthetic datasets, weight
/// initialization, the DP Gaussian mechanism) take a `&mut DivaRng` so that
/// every experiment is reproducible from a single `u64` seed.
///
/// # Example
///
/// ```
/// use diva_tensor::DivaRng;
/// let mut a = DivaRng::seed_from_u64(42);
/// let mut b = DivaRng::seed_from_u64(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Clone, Debug)]
pub struct DivaRng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare: Option<f64>,
}

/// SplitMix64's Weyl increment (the golden-ratio odd constant).
pub(crate) const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output mixer: a bijection on `u64` whose outputs at
/// consecutive Weyl counters form the SplitMix64 stream.
#[inline(always)]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 step: expands one 64-bit seed into a well-mixed stream, the
/// standard way of seeding xoshiro state (Blackman & Vigna).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix64(*state)
}

impl DivaRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { state, spare: None }
    }

    /// The xoshiro256++ next-u64 step: 64 uniformly random bits. The DP
    /// Gaussian mechanism draws one per call as the key of its
    /// counter-based noise ([`crate::add_gaussian_noise`]).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` using the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)` using the top 24 bits.
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Draws a uniform sample from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform bounds reversed: {lo} > {hi}");
        if lo == hi {
            return lo;
        }
        lo + (hi - lo) * self.next_f32()
    }

    /// Draws a uniform integer from `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        // Lemire-style widening multiply maps a u64 to [0, n) with
        // negligible bias for the n used here (dataset/batch indices).
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Draws a sample from the normal distribution `N(mean, std²)` using the
    /// Box–Muller transform.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative.
    pub fn gaussian(&mut self, mean: f64, std: f64) -> f64 {
        assert!(std >= 0.0, "negative standard deviation: {std}");
        let z = self.standard_normal();
        mean + std * z
    }

    /// Draws a standard normal `N(0, 1)` sample.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: two uniforms -> two independent standard normals.
        // u1 is kept away from 0 so that ln(u1) is finite.
        let u1: f64 = loop {
            let u: f64 = self.next_f64();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2: f64 = self.next_f64();
        let r = (-2.0f64 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Derives an independent child generator (for splitting a seed across
    /// parallel components without correlating their streams).
    pub fn fork(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = DivaRng::seed_from_u64(1);
        let mut b = DivaRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = DivaRng::seed_from_u64(1234);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 9.0).abs() < 0.2, "variance was {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = DivaRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn index_respects_bounds_and_covers_range() {
        let mut rng = DivaRng::seed_from_u64(10);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let i = rng.index(8);
            assert!(i < 8);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "index never hit some bucket");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DivaRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_decorrelates_streams() {
        let mut parent = DivaRng::seed_from_u64(5);
        let mut child = parent.fork();
        // Not a statistical test; just checks the streams are not identical.
        let a: Vec<f64> = (0..8).map(|_| parent.standard_normal()).collect();
        let b: Vec<f64> = (0..8).map(|_| child.standard_normal()).collect();
        assert_ne!(a, b);
    }
}

//! Counter-based Gaussian noise: the sampler behind the DP Gaussian
//! mechanism (`diva_dp::GaussianMechanism`, Algorithm 1 line 24).
//!
//! The noise of element `i` of stream `stream` under `key` is a pure
//! function of `(key, stream, i)`. A slice can therefore be noised in any
//! split, on any number of threads, with the same bits:
//!
//! * **Uniforms.** Element `i` sits in block `b = i / 128` at lane
//!   `l = i mod 128` and uses uniform pair `p = 64·b + (l mod 64)`. The
//!   pair's two 64-bit words are the SplitMix64 outputs at Weyl counters
//!   `2p + 1` and `2p + 2` of a per-stream base (`key` mixed with
//!   `stream`). Their top 53 bits give `u1 ∈ (0, 1]` and `u2 ∈ [0, 1)`,
//!   the granularity of [`crate::DivaRng`]'s Box–Muller, so the tails
//!   reach the same `|z| ≤ √(106 ln 2) ≈ 8.57`.
//! * **Transform.** Box–Muller with `r = √(−2 ln u1)` and `θ = 2π u2`.
//!   Lanes `0..64` of a block take `r cos θ`, lanes `64..128` take
//!   `r sin θ`. `ln`, `sin` and `cos` are branch-free polynomials: an
//!   atanh series after an exponent split, and Taylor series after an
//!   exact reduction of `4·u2` to the nearest quarter turn. They use only
//!   `+ − × ÷ √`, `floor` and bit casts, with no fused multiply-add and no
//!   libm. Every target and vector width therefore rounds them the same
//!   way, and the fixed 128-sample block loop vectorizes. They agree with
//!   libm's transform of the same uniforms to within 4e-15.
//! * **Fan-out.** A slice is cut into chunks of 64 blocks that the shared
//!   pool splits across workers ([`crate::parallel::par_chunks_mut`]).
//!   Chunks are block-aligned, so no pair straddles two tasks. Only the
//!   slice's last block can be partial: the whole block is computed and
//!   its prefix used, which also makes the noise of a prefix the prefix of
//!   the whole slice's noise.

use crate::parallel;
use crate::rng::{mix64, GAMMA};

/// Samples per block: 64 uniform pairs, transformed together.
const BLOCK: usize = 128;
/// Uniform pairs per block.
const PAIRS: usize = BLOCK / 2;
/// Elements per pool chunk. A slice shorter than this is noised on the
/// calling thread; a longer one is split in whole chunks.
const CHUNK: usize = 64 * BLOCK;

/// `2⁻⁵³`: scales a 53-bit integer into `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
/// `f64::from_bits(TWO52_BITS | n) == 2⁵² + n` for `n < 2⁵²`: an exact
/// integer-to-float conversion by bit cast, and its inverse.
const TWO52_BITS: u64 = 0x4330_0000_0000_0000;
const TWO52: f64 = 4_503_599_627_370_496.0;
/// The bits of `1.0` and of `√2/2`, and the mantissa field.
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
const MANTISSA: u64 = (1 << 52) - 1;
/// `ln 2 = LN2_HI + LN2_LO`, split so that `e · LN2_HI` is exact for every
/// exponent `e` of a double (fdlibm's split: `LN2_HI` ends in 21 zero bits).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `ATANH[k] = 1 / (2k + 1)`: `ln m = 2s · Σ ATANH[k] s²ᵏ` with
/// `s = (m − 1)/(m + 1)`. For `m ∈ [√2/2, √2)`, `s² < 0.0295`, and the
/// first omitted term is below 3e-17 of the sum (a quarter ulp).
const ATANH: [f64; 10] = {
    let mut c = [0.0; 10];
    let mut k = 0;
    while k < c.len() {
        c[k] = 1.0 / (2 * k + 1) as f64;
        k += 1;
    }
    c
};
/// Taylor coefficients of `cos φ` and `sin φ / φ` in powers of `φ²`. On
/// `|φ| ≤ π/4` the first omitted terms are below 3e-18 and 7e-17 of the
/// sums (under an ulp).
const COS: [f64; 9] = taylor(0);
const SIN: [f64; 8] = taylor(1);

/// `(−1)ᵏ / (2k + offset)!` for `k < N`. Every factorial here is exact in
/// `f64`, so each coefficient is rounded once.
const fn taylor<const N: usize>(offset: usize) -> [f64; N] {
    let mut c = [0.0; N];
    let (mut sign, mut factorial) = (1.0, 1.0);
    let mut k = 0;
    while k < N {
        c[k] = sign / factorial;
        sign = -sign;
        factorial *= ((2 * k + offset + 1) * (2 * k + offset + 2)) as f64;
        k += 1;
    }
    c
}

/// Adds `N(0, std²)` noise to every element of `data`. The noise of element
/// `i` is a pure function of `(key, stream, i)` (see the module docs), so
/// the result is bitwise the same at every thread count and for every
/// split of the work. Large slices run in parallel on the installed
/// [`crate::Backend`].
///
/// Callers draw `key` once per noising call (the DP mechanism takes it
/// from its [`crate::DivaRng`]) and give each tensor they noise under that
/// key its own `stream`.
///
/// # Panics
///
/// Panics if `std` is negative or not finite.
pub fn add_gaussian_noise(data: &mut [f32], std: f64, key: u64, stream: u64) {
    assert!(
        std >= 0.0 && std.is_finite(),
        "invalid noise standard deviation {std}"
    );
    let base = stream_base(key, stream);
    parallel::par_chunks_mut(data, CHUNK, |chunk, values| {
        let first = chunk * (CHUNK / BLOCK);
        let mut z = [0.0f64; BLOCK];
        for (b, block) in values.chunks_mut(BLOCK).enumerate() {
            normal_block(base, (first + b) as u64, &mut z);
            for (v, &n) in block.iter_mut().zip(&z) {
                *v += (std * n) as f32;
            }
        }
    });
}

/// The SplitMix64 base of one stream: `key` and `stream` mixed so that
/// distinct streams start at unrelated points of the Weyl sequence.
fn stream_base(key: u64, stream: u64) -> u64 {
    mix64(key ^ mix64(stream.wrapping_add(1).wrapping_mul(GAMMA)))
}

/// The uniforms of block `block`'s 64 pairs, `(u1, u2) ∈ (0, 1] × [0, 1)`.
fn uniform_pairs(base: u64, block: u64, u1: &mut [f64; PAIRS], u2: &mut [f64; PAIRS]) {
    // The Weyl counter of the block's first word; each pair takes two.
    let first = block.wrapping_mul(2 * PAIRS as u64).wrapping_add(1);
    let mut c = base.wrapping_add(first.wrapping_mul(GAMMA));
    for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
        let (w1, w2) = (mix64(c), mix64(c.wrapping_add(GAMMA)));
        *a = ((w1 >> 11) + 1) as f64 * UNIT;
        *b = (w2 >> 11) as f64 * UNIT;
        c = c.wrapping_add(GAMMA.wrapping_mul(2));
    }
}

/// Standard normals of block `block` of the stream at `base`: lane `l` of
/// `z` is pair `64·block + (l mod 64)`'s cosine (`l < 64`) or sine branch.
fn normal_block(base: u64, block: u64, z: &mut [f64; BLOCK]) {
    let (mut u1, mut u2) = ([0.0f64; PAIRS], [0.0f64; PAIRS]);
    uniform_pairs(base, block, &mut u1, &mut u2);
    let (cos_lanes, sin_lanes) = z.split_at_mut(PAIRS);
    for (((zc, zs), &u1), &u2) in cos_lanes.iter_mut().zip(sin_lanes).zip(&u1).zip(&u2) {
        let r = (-2.0 * ln(u1)).sqrt();
        let (sin, cos) = sincos_turns(u2);
        *zc = r * cos;
        *zs = r * sin;
    }
}

/// `c[0] + c[1]·x + … + c[n−1]·xⁿ⁻¹` by Horner's rule.
#[inline(always)]
fn horner(x: f64, c: &[f64]) -> f64 {
    let (&last, rest) = c.split_last().expect("at least one coefficient");
    rest.iter().rev().fold(last, |acc, &ck| acc * x + ck)
}

/// `ln u` for a positive normal `u` (here `u ∈ [2⁻⁵³, 1]`).
#[inline(always)]
fn ln(u: f64) -> f64 {
    // u = 2ᵉ·m with m ∈ [√2/2, √2): adding 1 − √2/2 to the bits carries
    // into the exponent field exactly when u's mantissa is at least √2.
    let t = u.to_bits().wrapping_add(ONE_BITS - SQRT_HALF_BITS);
    let e = f64::from_bits(TWO52_BITS | (t >> 52)) - (TWO52 + 1023.0);
    let m = f64::from_bits((t & MANTISSA) + SQRT_HALF_BITS);
    let s = (m - 1.0) / (m + 1.0);
    e * LN2_HI + (e * LN2_LO + 2.0 * s * horner(s * s, &ATANH))
}

/// `(sin 2πu, cos 2πu)` for `u ∈ [0, 1)`.
#[inline(always)]
fn sincos_turns(u: f64) -> (f64, f64) {
    // In quarter turns `v = 4u` is exact, and so is its distance
    // `f ∈ [−½, ½]` to the nearest quarter `n ∈ [0, 4]`; the only rounding
    // before the polynomials is `φ = f·π/2 ∈ [−π/4, π/4]`.
    let v = 4.0 * u;
    let n = (v + 0.5).floor();
    let phi = (v - n) * std::f64::consts::FRAC_PI_2;
    let x = phi * phi;
    let (sin, cos) = (phi * horner(x, &SIN), horner(x, &COS));
    // Rotate by n quarter turns: odd n swaps sine and cosine, n ≡ 2, 3
    // negates the sine and n ≡ 1, 2 the cosine. The low bits of q are n.
    let q = (n + TWO52).to_bits();
    let swap = (q & 1).wrapping_neg();
    let (sb, cb) = (sin.to_bits(), cos.to_bits());
    let sin_bits = (sb & !swap) | (cb & swap);
    let cos_bits = (cb & !swap) | (sb & swap);
    (
        f64::from_bits(sin_bits ^ ((q & 2) << 62)),
        f64::from_bits(cos_bits ^ (((q + 1) & 2) << 62)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, DivaRng};

    fn noise(len: usize, key: u64, stream: u64) -> Vec<f32> {
        let mut v = vec![0.0f32; len];
        add_gaussian_noise(&mut v, 1.0, key, stream);
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// At 1, 2 and 5 threads, element `i` gets lane `i mod 128` of block
    /// `i / 128`, whichever chunk and task computed it: for every length
    /// around the block and chunk boundaries and for the benchmark CNN's
    /// 409,034 parameters.
    #[test]
    fn noise_is_bitwise_thread_count_independent() {
        let (key, stream) = (11, 3);
        let base = stream_base(key, stream);
        let mut z = [0.0; BLOCK];
        for len in [0, 1, 127, 128, 129, CHUNK - 1, CHUNK, CHUNK + 1, 409_034] {
            let reference: Vec<u32> = (0..len.div_ceil(BLOCK) as u64)
                .flat_map(|b| {
                    normal_block(base, b, &mut z);
                    z.map(|n| (0.0 + (1.0 * n) as f32).to_bits())
                })
                .take(len)
                .collect();
            for threads in [1, 2, 5] {
                let v = Backend::with_threads(threads).install(|| noise(len, key, stream));
                assert!(bits(&v) == reference, "len {len}, {threads} threads");
            }
        }
    }

    /// The noise of a prefix is the prefix of the whole slice's noise, for
    /// prefixes ending inside a block, on a block and past a chunk.
    #[test]
    fn prefix_noise_is_prefix_of_full_noise() {
        let full = noise(3 * CHUNK + 77, 5, 0);
        for len in [1, 63, 64, 65, 200, CHUNK + 5, 2 * CHUNK, 3 * CHUNK + 76] {
            assert_eq!(bits(&noise(len, 5, 0)), bits(&full[..len]), "prefix {len}");
        }
    }

    /// Keys and streams both decorrelate; adding to existing values adds
    /// exactly the noise a zero slice receives.
    #[test]
    fn keys_and_streams_select_different_noise() {
        let a = noise(256, 1, 0);
        assert_ne!(bits(&a), bits(&noise(256, 2, 0)));
        assert_ne!(bits(&a), bits(&noise(256, 1, 1)));
        let mut shifted = vec![0.5f32; 256];
        add_gaussian_noise(&mut shifted, 1.0, 1, 0);
        for (s, n) in shifted.iter().zip(&a) {
            assert_eq!(*s, 0.5 + n);
        }
    }

    /// The polynomial transform matches libm's Box–Muller on the same
    /// uniforms: 10⁶ drawn pairs, plus the extreme `u1 = 2⁻⁵³` and `u1 = 1`,
    /// both sides of the exponent split at `√2/2`, and every quarter-turn
    /// boundary of `u2`.
    #[test]
    fn transform_matches_libm_box_muller() {
        let libm = |u1: f64, u2: f64| {
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            (r * theta.cos(), r * theta.sin())
        };
        let ours = |u1: f64, u2: f64| {
            let r = (-2.0 * ln(u1)).sqrt();
            let (s, c) = sincos_turns(u2);
            (r * c, r * s)
        };
        let mut worst = 0.0f64;
        let mut check = |u1: f64, u2: f64| {
            let (a, b) = (ours(u1, u2), libm(u1, u2));
            worst = worst.max((a.0 - b.0).abs()).max((a.1 - b.1).abs());
        };
        let base = stream_base(DivaRng::seed_from_u64(0x5eed).next_u64(), 0);
        let (mut u1, mut u2) = ([0.0; PAIRS], [0.0; PAIRS]);
        for block in 0..1_000_000 / PAIRS as u64 {
            uniform_pairs(base, block, &mut u1, &mut u2);
            for (&u1, &u2) in u1.iter().zip(&u2) {
                check(u1, u2);
            }
        }
        let sqrt_half = f64::from_bits(SQRT_HALF_BITS);
        let below_split = f64::from_bits(SQRT_HALF_BITS - 1);
        for u1 in [
            UNIT,
            2.0 * UNIT,
            0.5,
            below_split,
            sqrt_half,
            1.0 - UNIT,
            1.0,
        ] {
            for q in 0..8 {
                let u2 = f64::from(q) / 8.0;
                for u2 in [u2, u2 + UNIT, (u2 - UNIT).max(0.0)] {
                    check(u1, u2);
                }
            }
        }
        assert!(worst <= 1e-12, "max |z - z_libm| = {worst:e}");
    }

    /// On-host timing diagnostic (ignored; run with `--ignored --nocapture`):
    /// noises one benchmark-CNN gradient (409,034 values) serially, at two
    /// threads, and with `DivaRng`'s sequential Box–Muller for reference.
    #[test]
    #[ignore = "timing diagnostic, run manually"]
    fn noise_timing() {
        let mut v = vec![0.0f32; 409_034];
        let median_ms = |f: &mut dyn FnMut()| {
            let mut ms: Vec<f64> = (0..101)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            ms.sort_by(f64::total_cmp);
            ms[ms.len() / 2]
        };
        let mut at = |backend: Backend| {
            median_ms(&mut || backend.install(|| add_gaussian_noise(&mut v, 1.1, 7, 0)))
        };
        let (serial, two) = (at(Backend::serial()), at(Backend::with_threads(2)));
        let mut rng = DivaRng::seed_from_u64(1);
        let sequential = median_ms(&mut || {
            for x in v.iter_mut() {
                *x += rng.gaussian(0.0, 1.1) as f32;
            }
        });
        println!(
            "409,034 values: counter-based {serial:.3} ms serial, {two:.3} ms at 2 threads; \
             DivaRng loop {sequential:.3} ms"
        );
    }

    /// The tails are those of a 53-bit Box–Muller: the largest radius is
    /// `√(106 ln 2)`, reached at `u1 = 2⁻⁵³`.
    #[test]
    fn tails_reach_the_53_bit_bound() {
        let r_max = (-2.0 * ln(UNIT)).sqrt();
        assert!((r_max - (106.0 * std::f64::consts::LN_2).sqrt()).abs() < 1e-14);
    }
}

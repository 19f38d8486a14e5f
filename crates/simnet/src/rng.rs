//! Random-sampling helpers over `rand`.
//!
//! The simulator needs Gaussian / log-normal / exponential draws; the
//! sanctioned dependency set has `rand` but not `rand_distr`, so the
//! classic transforms live here. Everything is driven by explicit
//! `StdRng` seeds: the same seed always yields the same network.

use rand::rngs::StdRng;
use rand::{splitmix64, Rng, RngExt, SeedableRng, SPLITMIX64_GAMMA};

/// Stable domain tags for the simulator's independent random streams.
pub mod tags {
    /// Geography / layout generation.
    pub const GEOGRAPHY: u64 = 1;
    /// Per-sector traffic parameters.
    pub const TRAFFIC: u64 = 2;
    /// Event engine (failures, flash crowds).
    pub const EVENTS: u64 = 3;
    /// KPI measurement noise.
    pub const KPI_NOISE: u64 = 4;
    /// Missing-value injection.
    pub const MISSING: u64 = 5;
    /// Data-corruption injection (stuck-at, spikes, unit-scale).
    pub const CORRUPTION: u64 = 6;
}

/// Deterministically derive a sub-seed from a master seed and a
/// domain tag, so independent simulator stages (geography, traffic,
/// events, …) consume decoupled streams.
pub fn sub_seed(master: u64, tag: u64) -> u64 {
    // The SplitMix64 finaliser of `master ^ tag·γ`: subtracting γ
    // cancels the increment `splitmix64` adds first.
    let z = master ^ tag.wrapping_mul(SPLITMIX64_GAMMA);
    splitmix64(z.wrapping_sub(SPLITMIX64_GAMMA))
}

/// Build a seeded RNG for a simulator stage.
pub fn stage_rng(master: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(master, tag))
}

/// Standard-normal draw via the Box–Muller transform.
pub fn normal(rng: &mut impl Rng) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval.
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Gaussian with the given mean and standard deviation.
pub fn gaussian(rng: &mut impl Rng, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * normal(rng)
}

/// Log-normal multiplicative noise with median 1 and the given sigma
/// of the underlying normal. `sigma = 0` returns exactly 1.
pub fn lognormal_noise(rng: &mut impl Rng, sigma: f64) -> f64 {
    if sigma == 0.0 {
        1.0
    } else {
        (sigma * normal(rng)).exp()
    }
}

/// Exponential draw with the given rate (mean `1 / rate`).
///
/// # Panics
/// Panics if `rate <= 0`.
pub fn exponential(rng: &mut impl Rng, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    -u.ln() / rate
}

/// Clamp a value into `[lo, hi]`.
#[inline]
pub fn clamp(v: f64, lo: f64, hi: f64) -> f64 {
    v.max(lo).min(hi)
}

/// Smoothstep: 0 below `lo`, 1 above `hi`, cubic ramp between.
/// Used to map raw load ratios into bounded "stress" values.
pub fn smoothstep(v: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(hi > lo);
    let t = clamp((v - lo) / (hi - lo), 0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seed_is_deterministic_and_spread() {
        assert_eq!(sub_seed(42, 1), sub_seed(42, 1));
        assert_ne!(sub_seed(42, 1), sub_seed(42, 2));
        assert_ne!(sub_seed(42, 1), sub_seed(43, 1));
        // Pinned: every simulated network is derived from these.
        assert_eq!(sub_seed(7, tags::TRAFFIC), 12918135221727111561);
    }

    #[test]
    fn normal_moments() {
        let mut rng = stage_rng(7, 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gaussian_shifts_and_scales() {
        let mut rng = stage_rng(7, 1);
        let n = 20_000;
        let mean = (0..n).map(|_| gaussian(&mut rng, 5.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn lognormal_median_near_one() {
        let mut rng = stage_rng(7, 2);
        let mut samples: Vec<f64> = (0..10_001).map(|_| lognormal_noise(&mut rng, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5000];
        assert!((median - 1.0).abs() < 0.1, "median {median}");
        assert_eq!(lognormal_noise(&mut rng, 0.0), 1.0);
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = stage_rng(7, 3);
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = stage_rng(7, 4);
        exponential(&mut rng, 0.0);
    }

    #[test]
    fn smoothstep_endpoints_and_midpoint() {
        assert_eq!(smoothstep(-1.0, 0.0, 1.0), 0.0);
        assert_eq!(smoothstep(2.0, 0.0, 1.0), 1.0);
        assert!((smoothstep(0.5, 0.0, 1.0) - 0.5).abs() < 1e-12);
        // Monotone.
        assert!(smoothstep(0.3, 0.0, 1.0) < smoothstep(0.6, 0.0, 1.0));
    }
}

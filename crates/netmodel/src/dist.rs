//! Inverse-CDF samplers for the distributions the paper's workload needs.
//!
//! We sample by inversion from a caller-supplied uniform generator rather
//! than pulling in `rand_distr`: the set of distributions is tiny
//! (exponential inter-arrivals for the Poisson join process, Pareto session
//! times) and inversion keeps the common-random-number discipline simple —
//! one uniform draw per variate, always.

use idpa_desim::rng::Xoshiro256StarStar;

/// Draws a uniform variate in the half-open interval `(0, 1]`.
///
/// The open lower end matters: both samplers below take `ln(u)` or a power
/// of `u`, which must never see zero.
fn uniform_open01(rng: &mut Xoshiro256StarStar) -> f64 {
    // 53 random mantissa bits, then shift from [0,1) to (0,1].
    let u = (rng.next() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
    1.0 - u
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Inter-arrival times of a Poisson process with rate `lambda` are
/// exponential; this is how the paper's "poisson process ... to simulate
/// the joining of nodes" is realised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate (> 0).
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "exponential rate must be positive, got {lambda}"
        );
        Exponential { lambda }
    }

    /// Creates the distribution from its mean (> 0).
    #[must_use]
    pub fn from_mean(mean: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        Exponential::new(1.0 / mean)
    }

    /// The rate parameter.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Draws one variate.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        -uniform_open01(rng).ln() / self.lambda
    }
}

/// Pareto (type I) distribution with scale `x_m` and shape `alpha`.
///
/// The paper models peer session times as Pareto with a **median of
/// 60 minutes**; [`Pareto::from_median`] parameterises directly by that
/// median: for Pareto, `median = x_m · 2^{1/alpha}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
    /// `1 / shape`, the exponent every draw takes.
    inv_shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with scale `x_m > 0` and shape
    /// `alpha > 0`.
    #[must_use]
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0, "Pareto scale must be positive, got {scale}");
        assert!(shape > 0.0, "Pareto shape must be positive, got {shape}");
        Pareto {
            scale,
            shape,
            inv_shape: 1.0 / shape,
        }
    }

    /// Creates a Pareto distribution with the given median and shape.
    #[must_use]
    pub fn from_median(median: f64, shape: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        let scale = median / 2f64.powf(1.0 / shape);
        Pareto::new(scale, shape)
    }

    /// Scale parameter `x_m` (the distribution's minimum).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Shape parameter `alpha` (tail index).
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The distribution's median `x_m · 2^{1/alpha}`.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.scale * 2f64.powf(1.0 / self.shape)
    }

    /// Mean, or `None` when `alpha <= 1` (infinite mean).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.shape > 1.0).then(|| self.shape * self.scale / (self.shape - 1.0))
    }

    /// CDF at `x`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            1.0 - (self.scale / x).powf(self.shape)
        }
    }

    /// Draws one variate via inversion: `x_m / u^{1/alpha}` for `u ∈ (0,1]`.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        self.scale / uniform_open01(rng).powf(self.inv_shape)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn uniform_open01_in_range() {
        let mut r = rng(1);
        for _ in 0..10_000 {
            let u = uniform_open01(&mut r);
            assert!(u > 0.0 && u <= 1.0, "u={u}");
        }
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::from_mean(5.0);
        let mut r = rng(2);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut r)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 5.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn exponential_from_mean_inverts_rate() {
        let d = Exponential::from_mean(4.0);
        assert!((d.lambda() - 0.25).abs() < 1e-12);
        assert!((d.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_is_nonnegative() {
        let d = Exponential::new(2.0);
        let mut r = rng(3);
        assert!((0..10_000).all(|_| d.sample(&mut r) >= 0.0));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn pareto_median_parameterisation() {
        // The paper's setting: median session time 60 minutes.
        let d = Pareto::from_median(60.0, 1.5);
        assert!((d.median() - 60.0).abs() < 1e-9);
        // Empirical median over many draws should be close.
        let mut r = rng(4);
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let emp_median = samples[50_000];
        assert!(
            (emp_median - 60.0).abs() / 60.0 < 0.03,
            "empirical median {emp_median}"
        );
    }

    #[test]
    fn pareto_samples_at_least_scale() {
        let d = Pareto::new(10.0, 2.0);
        let mut r = rng(5);
        assert!((0..10_000).all(|_| d.sample(&mut r) >= 10.0));
    }

    #[test]
    fn pareto_mean_only_for_shape_above_one() {
        assert!(Pareto::new(1.0, 0.9).mean().is_none());
        let m = Pareto::new(1.0, 3.0).mean().unwrap();
        assert!((m - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pareto_cdf_properties() {
        let d = Pareto::new(2.0, 1.5);
        assert_eq!(d.cdf(1.0), 0.0);
        assert_eq!(d.cdf(2.0), 0.0);
        assert!((d.cdf(f64::INFINITY) - 1.0).abs() < 1e-12);
        assert!(d.cdf(4.0) > d.cdf(3.0));
    }

    #[test]
    fn pareto_is_heavy_tailed_relative_to_exponential() {
        // With the same median, Pareto(1.1) should put far more mass above
        // 10x the median than an exponential does.
        let median = 60.0;
        let p = Pareto::from_median(median, 1.1);
        let e = Exponential::new(std::f64::consts::LN_2 / median); // same median
        let mut r = rng(6);
        let n = 100_000;
        let p_tail = (0..n).filter(|_| p.sample(&mut r) > 600.0).count();
        let e_tail = (0..n).filter(|_| e.sample(&mut r) > 600.0).count();
        assert!(
            p_tail > 5 * e_tail.max(1),
            "p_tail={p_tail}, e_tail={e_tail}"
        );
    }
}

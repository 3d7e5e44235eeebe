//! Statistics collectors for simulation output.
//!
//! The paper reports means with 95% confidence intervals (Figs. 3–4),
//! empirical CDFs of per-node payoffs (Figs. 6–7) and ratio metrics
//! (Table 2). This module provides the corresponding estimators.

/// Streaming mean/variance via Welford's algorithm, plus min/max.
///
/// Numerically stable for long runs (no sum-of-squares catastrophic
/// cancellation), O(1) memory.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite observation {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another collector into this one (parallel reduction step).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Minimum observation (`+inf` if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// 95% confidence interval for the mean (Student's t).
    #[must_use]
    pub fn ci95(&self) -> ConfidenceInterval {
        let half = if self.n < 2 {
            0.0
        } else {
            t_critical_95(self.n - 1) * self.std_err()
        };
        ConfidenceInterval {
            mean: self.mean(),
            half_width: half,
        }
    }
}

/// A symmetric confidence interval `mean ± half_width`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Lower endpoint.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `x` lies inside the interval.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }
}

/// Two-sided 95% critical value of Student's t with `df` degrees of freedom.
///
/// Exact table for small df, asymptotic normal value (1.96) beyond 120.
#[must_use]
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// Empirical cumulative distribution function over a finite sample.
///
/// Used to reproduce the payoff CDFs of Figs. 6–7.
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    sorted: Vec<f64>,
    dirty: bool,
}

impl Ecdf {
    /// Creates an empty ECDF.
    #[must_use]
    pub fn new() -> Self {
        Ecdf::default()
    }

    /// Builds an ECDF from a sample.
    #[must_use]
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut e = Ecdf::new();
        for s in samples {
            e.push(s);
        }
        e
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.sorted.push(x);
        self.dirty = true;
    }

    fn ensure_sorted(&mut self) {
        if self.dirty {
            self.sorted
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.dirty = false;
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` = fraction of observations `<= x`. Empty sample yields 0.
    pub fn eval(&mut self, x: f64) -> f64 {
        self.ensure_sorted();
        if self.sorted.is_empty() {
            return 0.0;
        }
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 <= q <= 1), by the nearest-rank method.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        self.ensure_sorted();
        assert!(!self.sorted.is_empty(), "quantile of empty sample");
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// The full step function as `(x, F(x))` pairs, one per observation —
    /// the series a CDF plot draws.
    pub fn points(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of the classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.0];
        let b_data = [10.0, 20.0, 30.0, 40.0];
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut all = OnlineStats::new();
        for &x in &a_data {
            a.push(x);
            all.push(x);
        }
        for &x in &b_data {
            b.push(x);
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.mean(), 2.0);
    }

    #[test]
    fn ci95_contains_true_mean_for_constant_data() {
        let mut s = OnlineStats::new();
        for _ in 0..10 {
            s.push(7.0);
        }
        let ci = s.ci95();
        assert_eq!(ci.mean, 7.0);
        assert_eq!(ci.half_width, 0.0);
        assert!(ci.contains(7.0));
    }

    #[test]
    fn ci95_widths_shrink_with_sample_size() {
        // Same spread, more points => narrower CI.
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        for i in 0..10 {
            small.push(f64::from(i % 2));
        }
        for i in 0..1000 {
            large.push(f64::from(i % 2));
        }
        assert!(large.ci95().half_width < small.ci95().half_width);
    }

    #[test]
    fn t_table_monotone_decreasing() {
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t_critical_95(df);
            assert!(t <= prev, "t({df})={t} > t({})={prev}", df - 1);
            prev = t;
        }
        assert_eq!(t_critical_95(1_000_000), 1.96);
    }

    #[test]
    fn ecdf_eval_and_quantile() {
        let mut e = Ecdf::from_samples([3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.quantile(0.5), 2.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert_eq!(e.quantile(0.0), 1.0); // nearest-rank clamps to first
    }

    #[test]
    fn ecdf_points_form_step_function() {
        let mut e = Ecdf::from_samples([10.0, 30.0, 20.0]);
        let pts = e.points();
        assert_eq!(pts, vec![(10.0, 1.0 / 3.0), (20.0, 2.0 / 3.0), (30.0, 1.0)]);
    }

    #[test]
    fn ecdf_push_after_eval_resorts() {
        let mut e = Ecdf::from_samples([1.0, 2.0]);
        assert_eq!(e.eval(1.5), 0.5);
        e.push(0.0);
        assert!((e.eval(1.5) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile of empty sample")]
    fn quantile_of_empty_panics() {
        Ecdf::new().quantile(0.5);
    }
}

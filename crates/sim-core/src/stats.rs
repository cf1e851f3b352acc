//! Online statistics, histograms and percentile helpers.
//!
//! These are the measurement primitives used by the experiment harnesses:
//! Welford-style running moments for runtime/cost aggregation, a fixed-width
//! histogram for latency distributions, and percentile extraction over
//! recorded samples.

use serde::{Deserialize, Serialize};

/// Running mean / variance / min / max over a stream of `f64` samples
/// (Welford's algorithm; numerically stable, O(1) memory).
///
/// ```
/// use sky_sim::OnlineStats;
/// let mut s = OnlineStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance (divides by n); 0 if fewer than 2 samples.
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by n−1); 0 if fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest sample; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// A histogram of `n` equal-width buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "histogram needs at least one bucket");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((v - self.lo) / w) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Counts per bucket (excluding under/overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile (`q` in `[0,1]`) by linear scan of buckets;
    /// returns the left edge of the bucket holding the quantile sample.
    /// `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.lo + i as f64 * w);
            }
        }
        Some(self.hi)
    }
}

/// Exact percentile of a slice (`q` in `[0, 1]`), by sorting a copy.
/// Uses the "nearest rank" method. Returns `None` on an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create with smoothing factor `alpha` in `(0, 1]`; larger alpha
    /// weights recent samples more.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Fold in one observation and return the updated average.
    pub fn update(&mut self, v: f64) -> f64 {
        let next = match self.value {
            None => v,
            Some(prev) => prev + self.alpha * (v - prev),
        };
        self.value = Some(next);
        next
    }

    /// Current average, if any observation has been made.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let s: OnlineStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert!((s.sum() - 10.0).abs() < 1e-12);
        assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let all: OnlineStats = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut a: OnlineStats = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let b: OnlineStats = (50..100).map(|i| (i as f64).sin() * 10.0).collect();
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn histogram_buckets_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for v in [-1.0, 0.0, 0.5, 5.0, 9.99, 10.0, 42.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.buckets()[0], 2); // 0.0 and 0.5
        assert_eq!(h.buckets()[5], 1); // 5.0
        assert_eq!(h.buckets()[9], 1); // 9.99
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 49.0).abs() <= 1.0, "median {median}");
        assert_eq!(h.quantile(0.0).unwrap(), 0.0);
        assert!(Histogram::new(0.0, 1.0, 2).quantile(0.5).is_none());
    }

    #[test]
    fn exact_percentile() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.update(10.0);
        assert_eq!(e.value(), Some(10.0));
        for _ in 0..64 {
            e.update(2.0);
        }
        assert!((e.value().unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }
}

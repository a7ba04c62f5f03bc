//! Statistics collection for simulation runs.

use crate::SimTime;

/// Collects scalar samples (e.g. per-query response times) and reports
/// summary statistics.
///
/// Samples are stored, so exact percentiles are available; experiment runs
/// involve at most a few thousand queries, making storage negligible.
/// Moments are maintained online with Welford's algorithm, so the mean and
/// variance stay accurate even for adversarial inputs (large mean, tiny
/// variance) where a naive sum-of-squares pass cancels catastrophically.
#[derive(Debug, Clone, Default)]
pub struct SampleStats {
    samples: Vec<f64>,
    sorted: bool,
    // Welford accumulators: running mean and sum of squared deviations.
    mean: f64,
    m2: f64,
}

impl SampleStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is NaN.
    pub fn push(&mut self, sample: f64) {
        assert!(!sample.is_nan(), "NaN sample");
        self.samples.push(sample);
        self.sorted = false;
        let n = self.samples.len() as f64;
        let delta = sample - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (sample - self.mean);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator); 0 with < 2 samples.
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        // m2 is a sum of non-negative terms analytically; clamp the ulp
        // of negativity rounding can leave behind.
        (self.m2.max(0.0) / (n - 1) as f64).sqrt()
    }

    /// Minimum sample; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Exact percentile by nearest-rank (`p` in `[0, 100]`); 0 when empty.
    /// Nearest-rank is pinned by the simulator goldens and `results/*.csv`;
    /// `STATS` and `RealTimeReport` interpolate instead
    /// (`sqda_obs::stats::percentile`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1).min(self.samples.len() - 1)]
    }

    /// Half-width of the 95% confidence interval for the mean (normal
    /// approximation); 0 with < 2 samples.
    pub fn ci95_half_width(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        1.96 * self.std_dev() / (n as f64).sqrt()
    }

    /// Absorbs another collector's samples (e.g. merging per-worker
    /// stats after a parallel sweep).
    ///
    /// Moments are combined with Chan's parallel update, which is exact in
    /// the same sense as Welford's single-sample update — no re-summation
    /// over raw samples, no cancellation between large totals.
    pub fn merge(&mut self, other: &SampleStats) {
        let (na, nb) = (self.samples.len() as f64, other.samples.len() as f64);
        if nb > 0.0 {
            if na == 0.0 {
                self.mean = other.mean;
                self.m2 = other.m2;
            } else {
                let n = na + nb;
                let delta = other.mean - self.mean;
                self.mean += delta * nb / n;
                self.m2 += other.m2 + delta * delta * na * nb / n;
            }
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Consumes the collector and produces every report field at once,
    /// sorting the samples a single time (the repeated-`percentile`
    /// pattern re-checks sortedness per call and needs `&mut` borrows
    /// at each use site).
    pub fn summary(mut self) -> StatsSummary {
        if !self.sorted && !self.samples.is_empty() {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
        StatsSummary {
            count: self.len(),
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min(),
            max: self.max(),
            median: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            ci95_half_width: self.ci95_half_width(),
        }
    }
}

/// All summary fields of a [`SampleStats`], computed in one pass by
/// [`SampleStats::summary`]. Empty collectors yield all-zero summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Nearest-rank median.
    pub median: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Half-width of the 95% CI for the mean.
    pub ci95_half_width: f64,
}

/// Accumulates busy intervals of a single server to report utilization.
///
/// Servers in this kernel are work-conserving FCFS, so busy intervals never
/// overlap and accumulate monotonically; the tracker only needs a running
/// sum.
#[derive(Debug, Clone, Default)]
pub struct UtilizationTracker {
    busy: SimTime,
}

impl UtilizationTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn add_busy(&mut self, start: SimTime, end: SimTime) {
        self.busy += end - start;
    }

    /// Total busy time.
    pub fn total_busy(&self) -> SimTime {
        self.busy
    }

    /// Busy fraction of `[0, horizon]`; 0 for a zero horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let mut s = SampleStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.13809).abs() < 1e-4);
        assert_eq!(s.len(), 8);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let mut s = SampleStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = SampleStats::new();
        for x in 1..=100 {
            s.push(x as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(95.0), 95.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        // Pushing after sorting still works.
        s.push(1000.0);
        assert_eq!(s.percentile(100.0), 1000.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_rejected() {
        SampleStats::new().push(f64::NAN);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small = SampleStats::new();
        let mut large = SampleStats::new();
        for i in 0..10 {
            small.push((i % 5) as f64);
        }
        for i in 0..1000 {
            large.push((i % 5) as f64);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = SampleStats::new();
        let mut b = SampleStats::new();
        for x in [1.0, 2.0, 3.0] {
            a.push(x);
        }
        for x in [4.0, 5.0] {
            b.push(x);
        }
        // Sort a first so merge must clear the sorted flag.
        let _ = a.percentile(50.0);
        a.merge(&b);
        assert_eq!(a.len(), 5);
        assert!((a.mean() - 3.0).abs() < 1e-12);
        assert_eq!(a.percentile(100.0), 5.0);
    }

    #[test]
    fn welford_survives_large_mean_small_variance() {
        // Samples around 1e9 with unit-scale spread: the naive
        // E[x²] − E[x]² formulation loses all significant digits here
        // (1e18 − 1e18); Welford keeps ~12.
        let mut s = SampleStats::new();
        let offsets = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
        for o in offsets {
            s.push(1.0e9 + o);
        }
        // The inputs themselves are only representable to ~1.2e-7 at this
        // magnitude, so agreement to 1e-6 is the best any algorithm can do;
        // a cancelling sum-of-squares pass would be off by O(1) or produce
        // a zero/negative variance.
        let true_mean = 1.0e9 + 0.55;
        let true_std = 0.302_765_035_409_749_6; // std of 0.1..=1.0 step 0.1
        assert!((s.mean() - true_mean).abs() < 1e-6, "mean {}", s.mean());
        assert!(
            (s.std_dev() - true_std).abs() < 1e-6,
            "std {} vs {true_std}",
            s.std_dev()
        );
    }

    #[test]
    fn merge_is_numerically_stable_and_matches_sequential() {
        // Two large-mean halves merged must agree with pushing the whole
        // stream into one collector.
        let mut whole = SampleStats::new();
        let mut left = SampleStats::new();
        let mut right = SampleStats::new();
        for i in 0..1000 {
            let x = 5.0e8 + (i % 17) as f64 * 0.25;
            whole.push(x);
            if i < 400 {
                left.push(x);
            } else {
                right.push(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.len(), whole.len());
        assert!((left.mean() - whole.mean()).abs() < 1e-6);
        // Same representability bound as above: 5e8 · ε ≈ 6e-8 per term.
        assert!((left.std_dev() - whole.std_dev()).abs() < 1e-6);
        assert!(left.std_dev() > 1.0, "variance collapsed: {}", left.std_dev());
        // Merging into an empty collector adopts the other's moments.
        let mut empty = SampleStats::new();
        empty.merge(&whole);
        assert_eq!(empty.mean(), whole.mean());
        assert_eq!(empty.std_dev(), whole.std_dev());
        // Merging an empty collector is a no-op on the moments.
        let before = (whole.mean(), whole.std_dev());
        whole.merge(&SampleStats::new());
        assert_eq!((whole.mean(), whole.std_dev()), before);
    }

    #[test]
    fn summary_matches_individual_accessors() {
        let mut s = SampleStats::new();
        for x in 1..=100 {
            s.push(x as f64);
        }
        let mut reference = s.clone();
        let summary = s.summary();
        assert_eq!(summary.count, 100);
        assert_eq!(summary.mean, reference.mean());
        assert_eq!(summary.std_dev, reference.std_dev());
        assert_eq!(summary.min, 1.0);
        assert_eq!(summary.max, 100.0);
        assert_eq!(summary.median, reference.percentile(50.0));
        assert_eq!(summary.p95, reference.percentile(95.0));
        assert_eq!(summary.p99, reference.percentile(99.0));
        assert_eq!(summary.ci95_half_width, reference.ci95_half_width());
        // Empty summary is all zeros.
        let empty = SampleStats::new().summary();
        assert_eq!(empty, StatsSummary::default());
    }

    #[test]
    fn utilization_tracker() {
        let mut u = UtilizationTracker::new();
        u.add_busy(SimTime::from_nanos(0), SimTime::from_nanos(50));
        u.add_busy(SimTime::from_nanos(80), SimTime::from_nanos(100));
        assert_eq!(u.total_busy(), SimTime::from_nanos(70));
        assert!((u.utilization(SimTime::from_nanos(100)) - 0.7).abs() < 1e-12);
        assert_eq!(u.utilization(SimTime::ZERO), 0.0);
    }
}

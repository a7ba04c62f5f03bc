//! Replication statistics: online moments, confidence intervals, and
//! warm-up truncation for the experiment suite.
//!
//! The paper's Section 4 numbers are means over stochastic simulations
//! (Poisson arrivals, seeded declustering, random query points). One run
//! is a point estimate; this module turns N replicated runs — one
//! independent RNG stream each — into `mean ± 95% CI` summaries that the
//! bench bins write through `bench::report`.
//!
//! Moments use Welford's online update and Chan's pairwise merge, so the
//! accumulators stay accurate for adversarial series (large mean, small
//! variance) and can be combined across parallel sweep workers without a
//! second pass over raw samples.
//!
//! Open-system response-time experiments additionally need warm-up
//! handling: the first arrivals see an empty disk array and bias the
//! steady-state mean downward. [`truncate_warmup`] implements
//! fixed-fraction initial deletion (in arrival order), and
//! [`batch_means`] the classical batch-means reduction.

use crate::json::ObjWriter;

/// Welford/Chan online accumulator for count, mean, variance, min, max.
///
/// Unlike `sqda_simkernel::SampleStats` this does not retain samples, so
/// it is O(1) space and suited to long replicated sweeps; percentiles are
/// not available.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in (Welford's update).
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Combines two accumulators (Chan's parallel update); exact in the
    /// same error model as sequential pushes, with no pass over samples.
    pub fn merge(&mut self, other: &OnlineMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        self.mean += delta * nb / n;
        self.m2 += other.m2 + delta * delta * na * nb / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator); 0 with < 2 observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            // Analytically non-negative; clamp rounding residue.
            self.m2.max(0.0) / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation; 0 with < 2 observations.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the 95% confidence interval for the mean under the
    /// normal approximation (`1.96·s/√n`); 0 with < 2 observations.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Freezes the accumulator into a [`MetricSummary`].
    pub fn summary(&self) -> MetricSummary {
        MetricSummary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            ci95_half_width: self.ci95_half_width(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// Frozen `mean ± CI` summary of one metric over N replications, as it
/// appears in `BENCH_summary.json` schema v2.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricSummary {
    /// Number of replications folded in.
    pub count: u64,
    /// Mean over replications.
    pub mean: f64,
    /// Sample standard deviation over replications.
    pub std_dev: f64,
    /// Half-width of the 95% CI for the mean.
    pub ci95_half_width: f64,
    /// Smallest replication value.
    pub min: f64,
    /// Largest replication value.
    pub max: f64,
}

impl MetricSummary {
    /// Summarizes a slice of per-replication values.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut m = OnlineMoments::new();
        for &s in samples {
            m.push(s);
        }
        m.summary()
    }

    /// Appends this summary's fields to an in-progress JSON object.
    pub fn write_fields(&self, w: &mut ObjWriter) {
        w.field_u64("count", self.count);
        w.field_f64("mean", self.mean);
        w.field_f64("std_dev", self.std_dev);
        w.field_f64("ci95", self.ci95_half_width);
        w.field_f64("min", self.min);
        w.field_f64("max", self.max);
    }

    /// Serializes to a standalone JSON object (deterministic bytes).
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::new();
        self.write_fields(&mut w);
        w.finish()
    }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of an
/// ascending-sorted sample; 0 when empty. The convention of `STATS`'
/// windowed percentiles and of `RealTimeReport`; the simulator's
/// `SampleStats::percentile` is nearest-rank instead.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

/// Drops the warm-up prefix of an arrival-ordered series: the first
/// `⌊n·fraction⌋` samples are deleted. `fraction` is clamped to
/// `[0, 1]`; with `fraction = 0` the full series is returned.
///
/// This is the fixed-fraction initial-deletion rule: crude but robust,
/// and standard practice for open-system simulations whose transient is
/// short relative to the run (Law & Kelton §9.5.1).
pub fn truncate_warmup(samples: &[f64], fraction: f64) -> &[f64] {
    let f = fraction.clamp(0.0, 1.0);
    let drop = (samples.len() as f64 * f).floor() as usize;
    &samples[drop.min(samples.len())..]
}

/// Reduces an arrival-ordered series to `batches` batch means (equal
/// contiguous batches; a non-divisible tail is folded into the last
/// batch). Batch means are far closer to independent than raw
/// autocorrelated response times, so CIs over them are honest.
///
/// Returns an empty vector when `batches == 0` or there are fewer
/// samples than batches.
pub fn batch_means(samples: &[f64], batches: usize) -> Vec<f64> {
    if batches == 0 || samples.len() < batches {
        return Vec::new();
    }
    let base = samples.len() / batches;
    let mut out = Vec::with_capacity(batches);
    for b in 0..batches {
        let start = b * base;
        let end = if b + 1 == batches {
            samples.len()
        } else {
            start + base
        };
        let chunk = &samples[start..end];
        out.push(chunk.iter().sum::<f64>() / chunk.len() as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    /// SplitMix64 — local copy so these tests stay dependency-free
    /// (sqda-obs deliberately has no `rand`).
    fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    struct Rng(u64);
    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(self.0)
        }
        /// Uniform in (0, 1].
        fn uniform(&mut self) -> f64 {
            ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
        }
        /// Standard normal via Box–Muller.
        fn normal(&mut self) -> f64 {
            let (u1, u2) = (self.uniform(), self.uniform());
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        }
        /// Exponential with rate 1 (mean 1).
        fn exponential(&mut self) -> f64 {
            -self.uniform().ln()
        }
    }

    #[test]
    fn moments_match_closed_form() {
        let mut m = OnlineMoments::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.std_dev() - 2.138_089_935).abs() < 1e-8);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
        let s = m.summary();
        assert_eq!(
            s,
            MetricSummary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        );
        assert!((s.ci95_half_width - 1.96 * s.std_dev / 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_defined() {
        let empty = OnlineMoments::new();
        assert_eq!(empty.summary(), MetricSummary::default());
        let mut one = OnlineMoments::new();
        one.push(3.5);
        let s = one.summary();
        assert_eq!(
            (s.count, s.mean, s.std_dev, s.ci95_half_width),
            (1, 3.5, 0.0, 0.0)
        );
        assert_eq!((s.min, s.max), (3.5, 3.5));
    }

    #[test]
    fn merge_matches_sequential_and_is_stable() {
        let mut rng = Rng(7);
        let xs: Vec<f64> = (0..501).map(|_| 1.0e8 + rng.normal()).collect();
        let mut whole = OnlineMoments::new();
        let mut parts = [
            OnlineMoments::new(),
            OnlineMoments::new(),
            OnlineMoments::new(),
        ];
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            parts[i % 3].push(x);
        }
        let mut merged = OnlineMoments::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-6);
        assert!((merged.std_dev() - whole.std_dev()).abs() < 1e-6);
        assert!(merged.std_dev() > 0.5, "variance collapsed at large mean");
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
    }

    #[test]
    fn ci_covers_true_mean_for_normal_samples() {
        // 1000 replicated "experiments" of 40 N(10, 2²) samples each:
        // the 95% CI must contain the true mean in ~95% of trials.
        let mut rng = Rng(42);
        let mut covered = 0;
        for _ in 0..1000 {
            let mut m = OnlineMoments::new();
            for _ in 0..40 {
                m.push(10.0 + 2.0 * rng.normal());
            }
            if (m.mean() - 10.0).abs() <= m.ci95_half_width() {
                covered += 1;
            }
        }
        assert!(
            (920..=980).contains(&covered),
            "normal CI coverage {covered}/1000, expected ≈950"
        );
    }

    #[test]
    fn ci_covers_true_mean_for_exponential_samples() {
        // Same protocol on a skewed distribution (Exp(1), true mean 1).
        // The normal approximation under-covers slightly at n=40; accept
        // a wider band but still centred near 95%.
        let mut rng = Rng(4242);
        let mut covered = 0;
        for _ in 0..1000 {
            let mut m = OnlineMoments::new();
            for _ in 0..40 {
                m.push(rng.exponential());
            }
            if (m.mean() - 1.0).abs() <= m.ci95_half_width() {
                covered += 1;
            }
        }
        assert!(
            (890..=975).contains(&covered),
            "exponential CI coverage {covered}/1000, expected ≈930–950"
        );
    }

    #[test]
    fn warmup_truncation_removes_transient_bias() {
        // Seeded transient workload: an empty-system ramp where the first
        // fifth of arrivals respond fast, then a noisy steady state at 5.
        let mut rng = Rng(99);
        let mut series = Vec::new();
        for i in 0..500 {
            let steady = 5.0 + 0.3 * rng.normal();
            let ramp = if i < 100 {
                -4.0 * (1.0 - i as f64 / 100.0)
            } else {
                0.0
            };
            series.push(steady + ramp);
        }
        let raw = MetricSummary::from_samples(&series);
        let trimmed = MetricSummary::from_samples(truncate_warmup(&series, 0.2));
        assert_eq!(trimmed.count, 400);
        assert!(
            (trimmed.mean - 5.0).abs() < 0.05,
            "trimmed {}",
            trimmed.mean
        );
        // The untrimmed mean carries the ramp bias of −2·(100/500) = −0.4.
        assert!(
            raw.mean < trimmed.mean - 0.3,
            "raw {} trimmed {}",
            raw.mean,
            trimmed.mean
        );
    }

    #[test]
    fn truncate_warmup_edge_cases() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(truncate_warmup(&v, 0.0), &v);
        assert_eq!(truncate_warmup(&v, 0.5), &[3.0, 4.0]);
        assert_eq!(truncate_warmup(&v, 1.0), &[] as &[f64]);
        assert_eq!(truncate_warmup(&v, 7.0), &[] as &[f64]); // clamped
        assert_eq!(truncate_warmup(&[], 0.5), &[] as &[f64]);
        // ⌊4·0.2⌋ = 0: small series are kept whole.
        assert_eq!(truncate_warmup(&v, 0.2), &v);
    }

    #[test]
    fn batch_means_reduction() {
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(batch_means(&v, 2), vec![3.0, 8.0]);
        // Non-divisible tail folds into the last batch.
        assert_eq!(batch_means(&v, 3), vec![2.0, 5.0, 8.5]);
        assert_eq!(batch_means(&v, 0), Vec::<f64>::new());
        assert_eq!(batch_means(&v[..2], 3), Vec::<f64>::new());
        let overall: f64 = batch_means(&v, 5).iter().sum::<f64>() / 5.0;
        assert!((overall - 5.5).abs() < 1e-12);
    }

    #[test]
    fn summary_json_bytes_are_deterministic() {
        // Samples chosen so every summary field is exactly representable:
        // mean 0.5, std 0.25, ci95 = 1.96·0.25/√3 (pinned via format!).
        let s = MetricSummary::from_samples(&[0.25, 0.5, 0.75]);
        let a = s.to_json();
        assert_eq!(a, s.to_json());
        let expected = format!(
            "{{\"count\":3,\"mean\":0.5,\"std_dev\":0.25,\"ci95\":{},\
             \"min\":0.25,\"max\":0.75}}",
            1.96 * 0.25 / 3f64.sqrt()
        );
        assert_eq!(a, expected);
        // Degenerate summaries stay integral-formatted and byte-stable.
        let one = MetricSummary::from_samples(&[1.0, 1.0]);
        assert_eq!(
            one.to_json(),
            "{\"count\":2,\"mean\":1,\"std_dev\":0,\"ci95\":0,\"min\":1,\"max\":1}"
        );
    }
}

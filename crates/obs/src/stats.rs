//! Replication statistics: moments, confidence intervals, and warm-up
//! truncation for the experiment suite.
//!
//! The paper's Section 4 numbers are means over stochastic simulations
//! (Poisson arrivals, seeded declustering, random query points). One run
//! is a point estimate; this module turns N replicated runs — one
//! independent RNG stream each — into `mean ± 95% CI` summaries that the
//! bench bins write through `bench::report`.
//!
//! Moments use Welford's online update, so they stay accurate for
//! adversarial series (large mean, small variance).
//!
//! Open-system response-time experiments additionally need warm-up
//! handling: the first arrivals see an empty disk array and bias the
//! steady-state mean downward. [`truncate_warmup`] implements
//! fixed-fraction initial deletion (in arrival order).

use crate::json::ObjWriter;

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
    /// Summarizes a slice of per-replication values with Welford's
    /// online update, which stays accurate for adversarial series (large
    /// mean, small variance). The CI half-width is the normal
    /// approximation `1.96·s/√n`; spread and CI are 0 with fewer than two
    /// values, and everything is 0 for none.
    ///
    /// # Panics
    ///
    /// Panics if a value is NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        let (mut mean, mut m2) = (0.0, 0.0);
        let (mut min, mut max) = (0.0f64, 0.0f64);
        for (i, &x) in samples.iter().enumerate() {
            assert!(!x.is_nan(), "NaN observation");
            (min, max) = if i == 0 {
                (x, x)
            } else {
                (min.min(x), max.max(x))
            };
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        let n = samples.len() as u64;
        let (std_dev, ci95_half_width) = if n < 2 {
            (0.0, 0.0)
        } else {
            // Analytically non-negative; clamp rounding residue.
            let std_dev = (f64::max(m2, 0.0) / (n - 1) as f64).sqrt();
            (std_dev, 1.96 * std_dev / (n as f64).sqrt())
        };
        Self {
            count: n,
            mean,
            std_dev,
            ci95_half_width,
            min,
            max,
        }
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
/// windowed percentiles and of `RealTimeReport`; the simulator reports
/// [`nearest_rank`] instead.
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

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending-sorted
/// sample: the smallest sample with at least a `q` share of the sample
/// at or below it; 0 when empty. The simulator's `p95_response_s`, which
/// the simulator goldens and `results/*.csv` pin.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use sqda_geom::rng::{Rng, GOLDEN_GAMMA};

    #[test]
    fn percentiles_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.95), 95.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        // A rank between samples rounds up, never interpolates.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.6), 3.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        assert_eq!(nearest_rank(&[], 0.95), 0.0);
        assert_eq!(MetricSummary::from_samples(&[]), MetricSummary::default());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_rejected() {
        MetricSummary::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let small: Vec<f64> = (0..10).map(|i| f64::from(i % 5)).collect();
        let large: Vec<f64> = (0..1000).map(|i| f64::from(i % 5)).collect();
        assert!(
            MetricSummary::from_samples(&large).ci95_half_width
                < MetricSummary::from_samples(&small).ci95_half_width
        );
    }

    #[test]
    fn welford_survives_large_mean_small_variance() {
        // Samples around 1e9 with unit-scale spread: the naive
        // E[x²] − E[x]² formulation loses all significant digits here
        // (1e18 − 1e18); Welford keeps ~12. The inputs are only
        // representable to ~1.2e-7 at this magnitude, so 1e-6 is the best
        // agreement any algorithm can reach.
        let xs: Vec<f64> = (1..=10).map(|i| 1.0e9 + f64::from(i) / 10.0).collect();
        let s = MetricSummary::from_samples(&xs);
        let true_std = 0.302_765_035_409_749_6; // std of 0.1..=1.0 step 0.1
        assert!((s.mean - (1.0e9 + 0.55)).abs() < 1e-6, "mean {}", s.mean);
        assert!((s.std_dev - true_std).abs() < 1e-6, "std {}", s.std_dev);
    }

    #[test]
    fn summary_matches_individual_accessors() {
        // The one Welford pass agrees with a separate pass per field.
        let xs: Vec<f64> = (1..=100).map(|i| f64::from(i * 37 % 101)).collect();
        let s = MetricSummary::from_samples(&xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert_eq!(s.count, 100);
        assert!((s.mean - mean).abs() < 1e-12, "mean {}", s.mean);
        assert!((s.std_dev - var.sqrt()).abs() < 1e-12, "std {}", s.std_dev);
        assert_eq!(s.min, xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(s.max, xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        assert_eq!(s.ci95_half_width, 1.96 * s.std_dev / n.sqrt());
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    /// The workspace stream, started where these tests' original local
    /// SplitMix64 copy started.
    fn stream(seed: u64) -> Rng {
        Rng::from_state(seed.wrapping_add(GOLDEN_GAMMA))
    }

    /// Uniform in (0, 1].
    fn uniform(rng: &mut Rng) -> f64 {
        ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box–Muller.
    fn normal(rng: &mut Rng) -> f64 {
        let (u1, u2) = (uniform(rng), uniform(rng));
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential with rate 1 (mean 1).
    fn exponential(rng: &mut Rng) -> f64 {
        -uniform(rng).ln()
    }

    #[test]
    fn moments_match_closed_form() {
        let s = MetricSummary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.138_089_935).abs() < 1e-8);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.ci95_half_width - 1.96 * s.std_dev / 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_defined() {
        assert_eq!(MetricSummary::from_samples(&[]), MetricSummary::default());
        let s = MetricSummary::from_samples(&[3.5]);
        assert_eq!(
            (s.count, s.mean, s.std_dev, s.ci95_half_width),
            (1, 3.5, 0.0, 0.0)
        );
        assert_eq!((s.min, s.max), (3.5, 3.5));
    }

    #[test]
    fn variance_survives_a_large_mean() {
        // N(1e8, 1): a naive sum-of-squares variance cancels to noise here.
        let mut rng = stream(7);
        let xs: Vec<f64> = (0..501).map(|_| 1.0e8 + normal(&mut rng)).collect();
        let s = MetricSummary::from_samples(&xs);
        assert!((s.mean - 1.0e8).abs() < 0.2, "mean {}", s.mean);
        assert!((s.std_dev - 1.0).abs() < 0.15, "std_dev {}", s.std_dev);
        assert_eq!(s.min, xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(s.max, xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// How many of 1000 replicated experiments of 40 draws each have a
    /// 95% CI containing `truth`.
    fn coverage(truth: f64, mut draw: impl FnMut() -> f64) -> usize {
        (0..1000)
            .filter(|_| {
                let xs: Vec<f64> = (0..40).map(|_| draw()).collect();
                let s = MetricSummary::from_samples(&xs);
                (s.mean - truth).abs() <= s.ci95_half_width
            })
            .count()
    }

    #[test]
    fn ci_covers_true_mean_for_normal_samples() {
        // N(10, 2²) samples: the 95% CI must contain the true mean in
        // ~95% of trials.
        let mut rng = stream(42);
        let covered = coverage(10.0, || 10.0 + 2.0 * normal(&mut rng));
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
        let mut rng = stream(4242);
        let covered = coverage(1.0, || exponential(&mut rng));
        assert!(
            (890..=975).contains(&covered),
            "exponential CI coverage {covered}/1000, expected ≈930–950"
        );
    }

    #[test]
    fn warmup_truncation_removes_transient_bias() {
        // Seeded transient workload: an empty-system ramp where the first
        // fifth of arrivals respond fast, then a noisy steady state at 5.
        let mut rng = stream(99);
        let mut series = Vec::new();
        for i in 0..500 {
            let steady = 5.0 + 0.3 * normal(&mut rng);
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

//! The unified reporting API every experiment writes through.
//!
//! Each experiment builds one [`BinReport`]: the full parameter set, the master
//! seed and derived replication seeds, and a list of headline metrics as
//! `mean ± 95% CI` over replications. `finish` writes two files next to
//! the CSVs:
//!
//! * `<out>/<bench>.manifest.json` — the [`RunManifest`] provenance
//!   record (git sha, seeds, parameters, wall-clock);
//! * `<out>/bench/<bench>.json` — a schema-v2 summary *fragment* that
//!   `experiment all` merges into `results/BENCH_summary.json`.
//!
//! [`compare_summaries`] implements the noise-aware regression rule used
//! by the `check_regression` bin: a metric only counts as regressed when
//! the 95% confidence bands of baseline and current mean **separate**
//! *and* the relative change exceeds a floor — point-estimate jitter
//! inside overlapping bands never fails CI.

use crate::ExpOptions;
use sqda_obs::json::{parse, u64_array, ObjWriter, Value};
use sqda_obs::{MetricSummary, RunManifest};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Which direction of change counts as a regression for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Smaller is better (response times, node counts): an increase can
    /// regress. The default for every metric in this suite.
    #[default]
    Lower,
    /// Larger is better (speedups): a decrease can regress.
    Higher,
    /// Informational only — never checked for regressions.
    Info,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
            Direction::Info => "info",
        }
    }

    fn from_str(s: &str) -> Self {
        match s {
            "higher" => Direction::Higher,
            "info" => Direction::Info,
            _ => Direction::Lower,
        }
    }
}

struct MetricPoint {
    name: String,
    labels: Vec<(String, String)>,
    direction: Direction,
    summary: MetricSummary,
}

/// Collects one experiment's provenance and headline metrics.
pub struct BinReport {
    bench: String,
    manifest: RunManifest,
    metrics: Vec<MetricPoint>,
    quick: bool,
    started: Instant,
}

impl BinReport {
    /// Starts a report for `bench` under the given options.
    pub fn new(bench: &str, opts: &ExpOptions) -> Self {
        let mut manifest = RunManifest::new(bench);
        manifest.crate_version = env!("CARGO_PKG_VERSION").to_string();
        manifest.reps = opts.reps() as u32;
        manifest.warmup_fraction = opts.warmup;
        Self {
            bench: bench.to_string(),
            manifest,
            metrics: Vec::new(),
            quick: opts.quick,
            started: Instant::now(),
        }
    }

    /// Records one parameter into the manifest (builder-style).
    pub fn param(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.manifest
            .params
            .push((key.to_string(), value.to_string()));
        self
    }

    /// Records the master seed replications are split from, deriving and
    /// storing the per-replication seed list.
    pub fn master_seed(&mut self, seed: u64) -> &mut Self {
        self.manifest.master_seed = seed;
        self.manifest.rep_seeds = (0..self.manifest.reps.max(1) as usize)
            .map(|r| crate::rep_seed(seed, r))
            .collect();
        self
    }

    /// Adds one headline metric — its samples (one per replication, or
    /// the one exact value) summarized as mean ± CI — with its labels and
    /// regression [`Direction`], e.g. `report.metric("mean_response_s",
    /// &[("algorithm", "CRSS".into())], &responses, Direction::Lower)`.
    pub fn metric(
        &mut self,
        name: &str,
        labels: &[(&str, String)],
        samples: &[f64],
        direction: Direction,
    ) {
        let summary = MetricSummary::from_samples(samples);
        self.metrics.push(MetricPoint {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            direction,
            summary,
        });
    }

    /// Serializes the schema-v2 summary fragment (deterministic bytes).
    pub fn fragment_json(&self) -> String {
        let metric = |m: &MetricPoint| {
            let mut labels = ObjWriter::new();
            for (k, v) in &m.labels {
                labels.field_str(k, v);
            }
            let mut w = ObjWriter::new();
            w.field_str("name", &m.name);
            w.field_raw("labels", &labels.finish());
            w.field_str("direction", m.direction.as_str());
            m.summary.write_fields(&mut w);
            w.finish()
        };
        let metrics: Vec<String> = self.metrics.iter().map(metric).collect();
        let mut w = ObjWriter::new();
        w.field_u64("schema", 2);
        w.field_str("bench", &self.bench);
        w.field_bool("quick", self.quick);
        w.field_u64("reps", u64::from(self.manifest.reps));
        w.field_f64("warmup_fraction", self.manifest.warmup_fraction);
        w.field_u64("master_seed", self.manifest.master_seed);
        w.field_raw("rep_seeds", &u64_array(&self.manifest.rep_seeds));
        w.field_str("rng_fingerprint", &rng_fingerprint());
        w.field_raw("metrics", &format!("[{}]", metrics.join(",")));
        w.finish()
    }

    /// Writes the manifest and the summary fragment; returns the
    /// fragment's path.
    pub fn finish(&mut self, opts: &ExpOptions) -> PathBuf {
        self.manifest.wall_s = self.started.elapsed().as_secs_f64();
        self.manifest
            .write(&opts.out_dir)
            .expect("write run manifest");
        let dir = opts.out_dir.join("bench");
        std::fs::create_dir_all(&dir).expect("create bench fragment dir");
        let path = dir.join(format!("{}.json", self.bench));
        std::fs::write(&path, self.fragment_json() + "\n").expect("write summary fragment");
        eprintln!("  wrote {}", path.display());
        path
    }
}

/// Fingerprint of the generator every simulated number is drawn from, as
/// a 16-hex-digit FNV-1a hash of the first eight `sqda_geom::rng` draws
/// at seed 0. Recorded in every summary as provenance; it is
/// `6c37462be66c5f7d` for as long as the stream is unchanged.
pub fn rng_fingerprint() -> String {
    use sqda_geom::rng::Rng;
    let mut rng = Rng::seed_from_u64(0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..8 {
        let v: u64 = rng.gen();
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// One metric's reading from a summary file.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricRead {
    /// Mean over replications.
    pub mean: f64,
    /// 95% CI half-width over replications.
    pub ci95: f64,
}

/// Why a metric was flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// CI bands separate in the bad direction beyond the relative floor.
    Regression,
    /// Metric present in the baseline but absent from the current run.
    Missing,
}

/// One flagged metric from [`compare_summaries`].
#[derive(Debug, Clone)]
pub struct Finding {
    /// Bench the metric belongs to.
    pub bench: String,
    /// Metric identity: `name{label=value,…}`.
    pub metric: String,
    /// What went wrong.
    pub kind: FindingKind,
    /// Baseline reading.
    pub base: MetricRead,
    /// Current reading (zeroed for [`FindingKind::Missing`]).
    pub cur: MetricRead,
    /// Signed relative change in the metric's bad direction.
    pub rel_change: f64,
}

/// Outcome of diffing a current summary against a baseline.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Metrics compared numerically.
    pub compared: usize,
    /// Regressions + missing metrics (CI should fail when non-empty).
    pub findings: Vec<Finding>,
    /// Metrics whose CI bands separated in the *good* direction.
    pub improvements: usize,
}

fn metric_key(bench: &str, name: &str, labels: &[(String, String)]) -> String {
    let mut key = format!("{bench}/{name}{{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}={v}");
    }
    key.push('}');
    key
}

fn collect_metrics(summary: &Value) -> Result<HashMap<String, (MetricRead, Direction)>, String> {
    let benches = summary
        .get("benches")
        .ok_or("summary has no \"benches\" object (schema v2 required)")?;
    let benches = match benches {
        Value::Obj(map) => map,
        _ => return Err("\"benches\" is not an object".into()),
    };
    let mut out = HashMap::new();
    for (bench, frag) in benches {
        let metrics = match frag.get("metrics").and_then(|m| m.as_arr()) {
            Some(m) => m,
            None => continue,
        };
        for m in metrics {
            let name = m
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or_else(|| format!("metric without name in {bench}"))?;
            let mut labels: Vec<(String, String)> = Vec::new();
            if let Some(Value::Obj(lab)) = m.get("labels") {
                for (k, v) in lab {
                    labels.push((k.clone(), v.as_str().unwrap_or_default().to_string()));
                }
            }
            let read = MetricRead {
                mean: m.get("mean").and_then(|v| v.as_f64()).unwrap_or(0.0),
                ci95: m.get("ci95").and_then(|v| v.as_f64()).unwrap_or(0.0),
            };
            let dir = Direction::from_str(
                m.get("direction")
                    .and_then(|d| d.as_str())
                    .unwrap_or("lower"),
            );
            out.insert(metric_key(bench, name, &labels), (read, dir));
        }
    }
    Ok(out)
}

/// Diffs `current` against `baseline` (both parsed schema-v2 summaries).
///
/// A metric regresses only when **both** hold in its bad direction:
/// `|Δmean| > ci95(current) + ci95(baseline)` (confidence bands
/// separate — the difference is signal, not replication noise) and
/// `|Δmean| / baseline_mean > rel_threshold` (the floor keeps
/// micro-regressions on near-zero metrics from tripping CI). Metrics in
/// the baseline that vanished from the current summary are reported as
/// [`FindingKind::Missing`].
pub fn compare_summaries(
    current: &Value,
    baseline: &Value,
    rel_threshold: f64,
) -> Result<Comparison, String> {
    let cur = collect_metrics(current)?;
    let base = collect_metrics(baseline)?;
    let mut out = Comparison::default();
    let mut keys: Vec<&String> = base.keys().collect();
    keys.sort();
    for key in keys {
        let (b, dir) = base[key];
        let (bench, metric) = key.split_once('/').unwrap_or(("", key));
        let Some(&(c, _)) = cur.get(key) else {
            out.findings.push(Finding {
                bench: bench.to_string(),
                metric: metric.to_string(),
                kind: FindingKind::Missing,
                base: b,
                cur: MetricRead::default(),
                rel_change: 0.0,
            });
            continue;
        };
        if dir == Direction::Info {
            continue;
        }
        out.compared += 1;
        // Positive `bad` means the metric moved in its bad direction.
        let bad = match dir {
            Direction::Lower => c.mean - b.mean,
            Direction::Higher => b.mean - c.mean,
            Direction::Info => unreachable!(),
        };
        let bands_separate = bad.abs() > c.ci95 + b.ci95;
        let rel = if b.mean.abs() > f64::EPSILON {
            bad / b.mean.abs()
        } else if bad.abs() > f64::EPSILON {
            f64::INFINITY
        } else {
            0.0
        };
        if bands_separate && bad > 0.0 && rel > rel_threshold {
            out.findings.push(Finding {
                bench: bench.to_string(),
                metric: metric.to_string(),
                kind: FindingKind::Regression,
                base: b,
                cur: c,
                rel_change: rel,
            });
        } else if bands_separate && bad < 0.0 && -rel > rel_threshold {
            out.improvements += 1;
        }
    }
    Ok(out)
}

/// Convenience: parse two summary files' text and compare.
pub fn compare_summary_text(
    current: &str,
    baseline: &str,
    rel_threshold: f64,
) -> Result<Comparison, String> {
    let cur = parse(current.trim()).map_err(|e| format!("current summary: {e}"))?;
    let base = parse(baseline.trim()).map_err(|e| format!("baseline summary: {e}"))?;
    compare_summaries(&cur, &base, rel_threshold)
}

/// Most a point may cost at the largest scale `bench_scale` builds, as a
/// multiple of what it costs at the smallest.
pub const BUILD_SCALING_BAND: f64 = 1.5;

/// Most positional file calls a `bench_scale` build may make, as a share
/// of one call per page moved (what the build cost before scratch I/O
/// went by extents). The count repeats exactly: no band.
pub const IO_CALL_SHARE_LIMIT: f64 = 0.5;

/// The external build's figures from `bench_scale`'s fragment text, or
/// from a summary's `benches.bench_scale`, over the points of its sweep
/// (metrics labelled by `n` alone; the default-options rebuild, which
/// also carries `run_capacity`, stays out):
///
/// * scaling — `build_wall_s / n` at the largest `n` over the same at the
///   smallest. About 1 for a linear build (the merge's `log n` shows as
///   a few percent); a quadratic term in it grows with `n` and is what
///   [`BUILD_SCALING_BAND`] is there to catch.
/// * file-call share — the worst point's `io_calls` over its pages moved
///   (every node written once, every spilled page written and read back),
///   held under [`IO_CALL_SHARE_LIMIT`].
pub fn build_scaling(scale_json: &str) -> Result<(f64, f64), String> {
    let doc = parse(scale_json.trim()).map_err(|e| format!("scale results: {e}"))?;
    let frag = doc.get("benches").and_then(|b| b.get("bench_scale"));
    let metrics = frag.unwrap_or(&doc).get("metrics").and_then(|m| m.as_arr());
    let mut points: BTreeMap<u64, HashMap<&str, f64>> = BTreeMap::new();
    for m in metrics.unwrap_or(&[]) {
        let n = match m.get("labels") {
            Some(Value::Obj(labels)) if labels.len() == 1 => labels.get("n"),
            _ => None,
        };
        let n = n.and_then(|n| n.as_str()?.parse::<u64>().ok());
        let name = m.get("name").and_then(|v| v.as_str());
        let mean = m.get("mean").and_then(|v| v.as_f64());
        if let (Some(n @ 1..), Some(name), Some(mean)) = (n, name, mean) {
            points.entry(n).or_default().insert(name, mean);
        }
    }
    let figures = |(&n, p): (&u64, &HashMap<&str, f64>)| {
        let field = |name: &str| p.get(name).copied();
        let (n, pages) = (n as f64, field("nodes")? + 2.0 * field("spilled_pages")?);
        Some((n, field("build_wall_s")? / n, field("io_calls")? / pages))
    };
    let costs = points
        .iter()
        .map(|p| figures(p).ok_or("a point lacks \"build_wall_s\", \"io_calls\" or a page count"))
        .collect::<Result<Vec<_>, _>>()?;
    let share = costs.iter().map(|c| c.2).fold(0.0, f64::max);
    match (costs.first(), costs.last()) {
        (Some(small), Some(large)) if small.0 < large.0 && small.1 > 0.0 => {
            Ok((large.1 / small.1, share))
        }
        _ => Err("scale results need two scales with positive build times".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_scaling_is_per_point_cost_largest_over_smallest() {
        let metric = |name: &str, labels: &str, mean: f64| {
            format!(
                "{{\"name\":\"{name}\",\"labels\":{{{labels}}},\"direction\":\"info\",\
                 \"count\":1,\"mean\":{mean},\"std_dev\":0,\"ci95\":0,\"min\":0,\"max\":0}}"
            )
        };
        let scale = |small_s: f64, large_s: f64| {
            let mut metrics = Vec::new();
            for (n, build_s, nodes, spilled, io_calls) in [
                (10_000_000, large_s, 250_000, 900_000, 512_500),
                (1_000_000, small_s, 25_000, 50_000, 37_500),
            ] {
                let labels = format!("\"n\":\"{n}\"");
                metrics.push(metric("build_wall_s", &labels, build_s));
                metrics.push(metric("nodes", &labels, nodes as f64));
                metrics.push(metric("spilled_pages", &labels, spilled as f64));
                metrics.push(metric("io_calls", &labels, io_calls as f64));
            }
            // The default-options rebuild is not a point of the sweep.
            let rebuild = "\"n\":\"10000000\",\"run_capacity\":\"262144\"";
            metrics.push(metric("build_wall_s", rebuild, 1e6));
            format!(
                "{{\"schema\":2,\"bench\":\"bench_scale\",\"metrics\":[{}]}}",
                metrics.join(",")
            )
        };
        // The committed parent figures: 37.6x the time for 10x the data.
        let (quadratic, share) = build_scaling(&scale(2.453, 92.135)).expect("scaling");
        assert!((quadratic - 3.756).abs() < 1e-3, "{quadratic}");
        assert!(quadratic > BUILD_SCALING_BAND);
        // The worse of 512500 / 2050000 and 37500 / 125000.
        assert!((share - 0.3).abs() < 1e-9 && share <= IO_CALL_SHARE_LIMIT);
        let (linear, _) = build_scaling(&scale(1.0, 11.0)).expect("scaling");
        assert!((linear - 1.1).abs() < 1e-9 && linear <= BUILD_SCALING_BAND);
        // A summary carries the same fragment under `benches`.
        let summary = format!("{{\"benches\":{{\"bench_scale\":{}}}}}", scale(1.0, 11.0));
        assert_eq!(build_scaling(&summary).expect("scaling").0, linear);
        let one_point = metric("build_wall_s", "\"n\":\"5\"", 1.0);
        assert!(build_scaling(&format!("{{\"metrics\":[{one_point}]}}")).is_err());
        let per_page = scale(1.0, 11.0).replace("\"mean\":37500", "\"mean\":125000");
        assert_eq!(build_scaling(&per_page).expect("scaling").1, 1.0);
    }

    fn summary_with(mean: f64, ci: f64) -> String {
        format!(
            "{{\"schema\":2,\"rng_fingerprint\":\"abc\",\"benches\":{{\
             \"fig10\":{{\"bench\":\"fig10\",\"metrics\":[\
             {{\"name\":\"mean_response_s\",\
             \"labels\":{{\"algorithm\":\"CRSS\",\"lambda\":\"5\"}},\
             \"direction\":\"lower\",\"count\":5,\"mean\":{mean},\
             \"std_dev\":0.01,\"ci95\":{ci},\"min\":0,\"max\":1}}]}}}}}}"
        )
    }

    #[test]
    fn identical_summaries_have_no_findings() {
        let s = summary_with(0.1, 0.005);
        let c = compare_summary_text(&s, &s, 0.02).expect("compare");
        assert_eq!(c.compared, 1);
        assert!(c.findings.is_empty(), "{:?}", c.findings);
    }

    #[test]
    fn synthetic_2x_slowdown_is_flagged() {
        let base = summary_with(0.1, 0.005);
        let slow = summary_with(0.2, 0.005);
        let c = compare_summary_text(&slow, &base, 0.02).expect("compare");
        assert_eq!(c.findings.len(), 1, "{:?}", c.findings);
        let f = &c.findings[0];
        assert_eq!(f.kind, FindingKind::Regression);
        assert_eq!(f.bench, "fig10");
        assert!(f.metric.contains("mean_response_s"), "{}", f.metric);
        assert!((f.rel_change - 1.0).abs() < 1e-9, "{}", f.rel_change);
    }

    #[test]
    fn jitter_inside_overlapping_ci_bands_passes() {
        // +8% shift, but the bands (±0.006) overlap: |Δ|=0.008 < 0.012.
        let base = summary_with(0.100, 0.006);
        let cur = summary_with(0.108, 0.006);
        let c = compare_summary_text(&cur, &base, 0.02).expect("compare");
        assert!(c.findings.is_empty(), "{:?}", c.findings);
    }

    #[test]
    fn relative_floor_suppresses_tiny_but_significant_shifts() {
        // Bands separate (|Δ|=0.001 > 0.0004) but the change is only 1%.
        let base = summary_with(0.100, 0.0002);
        let cur = summary_with(0.101, 0.0002);
        let c = compare_summary_text(&cur, &base, 0.02).expect("compare");
        assert!(c.findings.is_empty(), "{:?}", c.findings);
    }

    #[test]
    fn improvements_are_counted_not_flagged() {
        let base = summary_with(0.2, 0.005);
        let fast = summary_with(0.1, 0.005);
        let c = compare_summary_text(&fast, &base, 0.02).expect("compare");
        assert!(c.findings.is_empty(), "{:?}", c.findings);
        assert_eq!(c.improvements, 1);
    }

    #[test]
    fn missing_metric_is_flagged() {
        let base = summary_with(0.1, 0.005);
        let empty = "{\"schema\":2,\"rng_fingerprint\":\"abc\",\"benches\":{}}";
        let c = compare_summary_text(empty, &base, 0.02).expect("compare");
        assert_eq!(c.findings.len(), 1);
        assert_eq!(c.findings[0].kind, FindingKind::Missing);
    }

    #[test]
    fn higher_is_better_direction_flips_the_rule() {
        let mk = |mean: f64| {
            format!(
                "{{\"schema\":2,\"benches\":{{\"t5\":{{\"metrics\":[\
                 {{\"name\":\"speedup\",\"labels\":{{}},\"direction\":\"higher\",\
                 \"count\":5,\"mean\":{mean},\"std_dev\":0.1,\"ci95\":0.1,\
                 \"min\":0,\"max\":9}}]}}}}}}"
            )
        };
        let dropped = compare_summary_text(&mk(2.0), &mk(3.4), 0.02).expect("compare");
        assert_eq!(dropped.findings.len(), 1, "{:?}", dropped.findings);
        let raised = compare_summary_text(&mk(3.4), &mk(2.0), 0.02).expect("compare");
        assert!(raised.findings.is_empty());
        assert_eq!(raised.improvements, 1);
    }

    #[test]
    fn bin_report_writes_fragment_and_manifest() {
        let dir = std::env::temp_dir().join("sqda_bin_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExpOptions {
            quick: true,
            out_dir: dir.clone(),
            jobs: 1,
            reps: Some(3),
            warmup: 0.1,
            ..ExpOptions::default()
        };
        let mut report = BinReport::new("unit_fragment", &opts);
        report.param("disks", 10).master_seed(4242);
        let labels = [("algorithm", "CRSS".to_string())];
        report.metric(
            "mean_response_s",
            &labels,
            &[0.1, 0.11, 0.12],
            Direction::Lower,
        );
        let frag = report.finish(&opts);
        let text = std::fs::read_to_string(&frag).expect("fragment readable");
        let v = parse(text.trim()).expect("fragment parses");
        assert_eq!(v.get("schema").and_then(|s| s.as_u64()), Some(2));
        assert_eq!(v.get("reps").and_then(|s| s.as_u64()), Some(3));
        let seeds = v.get("rep_seeds").and_then(|s| s.as_arr()).expect("seeds");
        assert_eq!(seeds.len(), 3);
        assert_eq!(
            seeds[0].as_u64(),
            Some(4242),
            "rep 0 must be the legacy seed"
        );
        let metrics = v.get("metrics").and_then(|m| m.as_arr()).expect("metrics");
        assert_eq!(metrics.len(), 1);
        assert!(dir.join("unit_fragment.manifest.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rng_fingerprint_is_the_committed_one() {
        // `results/BASELINE.json` records this value: the stream every
        // committed number was drawn from.
        assert_eq!(rng_fingerprint(), "6c37462be66c5f7d");
    }
}

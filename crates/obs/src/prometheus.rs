//! Prometheus text exposition of the live telemetry registry, plus a
//! strict lint for the produced format.
//!
//! The format follows the Prometheus text exposition conventions the
//! ecosystem's scrapers accept: every metric family is announced with
//! `# HELP` and `# TYPE` lines, histogram samples are cumulative
//! `_bucket{le="..."}` series closed by an `le="+Inf"` bucket plus
//! `_sum`/`_count`, and the document ends with a `# EOF` marker — which
//! doubles as the reply terminator for the line-oriented `METRICS`
//! protocol verb (a scraper reads until `# EOF`).
//!
//! [`lint`] re-parses a rendered document and checks the invariants the
//! CI smoke job relies on: HELP/TYPE present for every sampled family,
//! bucket counts cumulative and monotone with ascending `le` bounds,
//! `_count` equal to the `+Inf` bucket, `_sum` present for every
//! histogram, and the trailing `# EOF`.

use crate::live::{LiveDisk, LiveTelemetry, Scrape};
use crate::metrics::{DiskMetrics, Histogram};
use sqda_storage::IoStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The serving process's own counters, exported beside the registry by
/// `sqda serve`'s `METRICS` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Backend reads served on the submitting thread rather than a disk
    /// worker (`ThreadedFileBackend::inline_reads`).
    pub inline_reads: u64,
    /// Requests a connection thread found while polling its socket.
    pub polled_requests: u64,
}

/// Metric name prefix shared by every family.
const PREFIX: &str = "sqda";

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn labels_to_string(labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{v}\"");
    }
    s.push('}');
    s
}

fn counter_u64(out: &mut String, name: &str, help: &str, v: u64) {
    header(out, name, help, "counter");
    let _ = writeln!(out, "{name} {v}");
}

fn gauge_f64(out: &mut String, name: &str, help: &str, v: f64) {
    header(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {v}");
}

/// Renders one histogram family: HELP/TYPE once, then for each
/// `(labels, histogram)` series the cumulative buckets, `_sum` and
/// `_count` carrying the series labels.
fn histogram_family(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(Vec<(&'static str, String)>, &Histogram)],
) {
    header(out, name, help, "histogram");
    for (labels, h) in series {
        let mut cum = 0u64;
        for (i, &b) in h.buckets().iter().enumerate() {
            cum += b;
            let mut ls: Vec<(&str, String)> = labels.clone();
            let le = if i < h.bounds().len() {
                format!("{}", h.bounds()[i])
            } else {
                "+Inf".to_string()
            };
            ls.push(("le", le));
            let _ = writeln!(out, "{name}_bucket{} {cum}", labels_to_string(&ls));
        }
        let suffix = labels_to_string(labels);
        let _ = writeln!(out, "{name}_sum{suffix} {}", h.sum());
        let _ = writeln!(out, "{name}_count{suffix} {}", h.count());
    }
}

/// Renders the whole live registry (and, when given, the store's
/// [`IoStats`] and the server's own counters) as Prometheus text
/// exposition terminated by `# EOF`. The registry's figures come from one
/// [`LiveTelemetry::scrape`], so they all describe one moment.
pub fn render(t: &LiveTelemetry, io: Option<&IoStats>, server: Option<ServerCounters>) -> String {
    let mut out = String::new();
    let Scrape {
        uptime_ns,
        books,
        window: w,
        residual_accesses,
        residual_latency_ms,
    } = t.scrape();
    let m = &books.metrics;

    counter_u64(
        &mut out,
        &format!("{PREFIX}_queries_started_total"),
        "Queries picked up by a worker.",
        m.queries_arrived.0,
    );
    counter_u64(
        &mut out,
        &format!("{PREFIX}_queries_completed_total"),
        "Queries that completed with an answer.",
        m.queries_completed.0,
    );
    counter_u64(
        &mut out,
        &format!("{PREFIX}_queries_failed_total"),
        "Queries that aborted with a typed error.",
        m.queries_aborted.0,
    );
    counter_u64(
        &mut out,
        &format!("{PREFIX}_slow_queries_total"),
        "Completed queries over the slow-query threshold.",
        books.slow_queries,
    );
    counter_u64(
        &mut out,
        &format!("{PREFIX}_degraded_reads_total"),
        "Reads served by a shadow replica while a primary was failed.",
        m.degraded_reads.0,
    );
    let finished = m.queries_completed.0 + m.queries_aborted.0;
    gauge_f64(
        &mut out,
        &format!("{PREFIX}_inflight_queries"),
        "Queries currently being served.",
        m.queries_arrived.0.saturating_sub(finished) as f64,
    );
    gauge_f64(
        &mut out,
        &format!("{PREFIX}_uptime_seconds"),
        "Seconds since the telemetry registry was created.",
        uptime_ns as f64 / 1e9,
    );

    gauge_f64(
        &mut out,
        &format!("{PREFIX}_window_qps"),
        "Completions per second over the sliding window.",
        w.qps,
    );
    gauge_f64(
        &mut out,
        &format!("{PREFIX}_window_response_p50_ms"),
        "Windowed median response time, ms.",
        w.p50_ms,
    );
    gauge_f64(
        &mut out,
        &format!("{PREFIX}_window_response_p95_ms"),
        "Windowed 95th-percentile response time, ms.",
        w.p95_ms,
    );
    gauge_f64(
        &mut out,
        &format!("{PREFIX}_window_response_p99_ms"),
        "Windowed 99th-percentile response time, ms.",
        w.p99_ms,
    );
    gauge_f64(
        &mut out,
        &format!("{PREFIX}_model_residual_accesses"),
        "Windowed mean observed-minus-predicted node accesses.",
        residual_accesses,
    );
    gauge_f64(
        &mut out,
        &format!("{PREFIX}_model_residual_latency"),
        "Windowed mean observed-minus-predicted response time, ms.",
        residual_latency_ms,
    );

    for (name, help, h) in [
        ("response_ms", "Query response time, ms.", &m.response_ms),
        (
            "query_disk_queue_ms",
            "Per-query total time requests waited in disk queues, ms.",
            &books.disk_queue_ms,
        ),
        (
            "query_disk_service_ms",
            "Per-query total disk service time, ms.",
            &books.disk_service_ms,
        ),
        (
            "query_cpu_ms",
            "Per-query total CPU time, ms.",
            &books.cpu_ms,
        ),
        ("batch_size", "Pages per fetch batch.", &m.batch_size),
    ] {
        histogram_family(&mut out, &format!("{PREFIX}_{name}"), help, &[(vec![], h)]);
    }

    // Per-disk families, one series per disk labeled disk="i"; a disk
    // that served no read has no snapshot entry and reads as empty.
    let empty = DiskMetrics::new();
    let disks: Vec<(&LiveDisk, &DiskMetrics)> = (books.disks.iter().enumerate())
        .map(|(i, live)| (live, m.disks.get(&(i as u16)).unwrap_or(&empty)))
        .collect();
    let label = |i: usize| vec![("disk", i.to_string())];
    let per_disk = |out: &mut String,
                    name: &str,
                    help: &str,
                    kind: &str,
                    v: &dyn Fn(&LiveDisk, &DiskMetrics) -> String| {
        let name = format!("{PREFIX}_{name}");
        header(out, &name, help, kind);
        for (i, (live, d)) in disks.iter().enumerate() {
            let _ = writeln!(out, "{name}{} {}", labels_to_string(&label(i)), v(live, d));
        }
    };
    per_disk(
        &mut out,
        "disk_reads_total",
        "Reads served by this disk's worker.",
        "counter",
        &|_, d| d.requests.0.to_string(),
    );
    per_disk(
        &mut out,
        "disk_busy_seconds_total",
        "Cumulative read service time on this disk, seconds.",
        "counter",
        &|_, d| (d.busy_ns.0 as f64 / 1e9).to_string(),
    );
    per_disk(
        &mut out,
        "disk_queue_seconds_total",
        "Cumulative time requests waited in this disk's queue, seconds.",
        "counter",
        &|live, _| (live.queue_ns as f64 / 1e9).to_string(),
    );
    per_disk(
        &mut out,
        "disk_queue_depth",
        "Queue depth seen by the most recent submission.",
        "gauge",
        &|live, _| live.depth.to_string(),
    );
    per_disk(
        &mut out,
        "disk_utilization",
        "Fraction of uptime this disk spent servicing reads.",
        "gauge",
        &|_, d| {
            let busy = if uptime_ns == 0 {
                0.0
            } else {
                d.busy_ns.0 as f64 / uptime_ns as f64
            };
            busy.to_string()
        },
    );
    histogram_family(
        &mut out,
        &format!("{PREFIX}_disk_service_time_ms"),
        "Per-read disk service time, ms.",
        &disks
            .iter()
            .enumerate()
            .map(|(i, (live, _))| (label(i), &live.service_ms))
            .collect::<Vec<_>>(),
    );
    histogram_family(
        &mut out,
        &format!("{PREFIX}_disk_queue_time_ms"),
        "Per-read time-in-queue at the disk, ms.",
        &disks
            .iter()
            .enumerate()
            .map(|(i, (_, d))| (label(i), &d.queue_time_ms))
            .collect::<Vec<_>>(),
    );

    if let Some(io) = io {
        counter_u64(
            &mut out,
            &format!("{PREFIX}_cache_hits_total"),
            "Node-cache hits at the store.",
            io.cache_hits,
        );
        counter_u64(
            &mut out,
            &format!("{PREFIX}_cache_misses_total"),
            "Node-cache misses at the store.",
            io.cache_misses,
        );
        let total = io.cache_hits + io.cache_misses;
        gauge_f64(
            &mut out,
            &format!("{PREFIX}_cache_hit_ratio"),
            "Node-cache hit ratio in [0,1].",
            if total == 0 {
                0.0
            } else {
                io.cache_hits as f64 / total as f64
            },
        );
        gauge_f64(
            &mut out,
            &format!("{PREFIX}_cache_resident_bytes"),
            "Bytes resident in the decoded-node cache.",
            io.cache_resident_bytes as f64,
        );
        gauge_f64(
            &mut out,
            &format!("{PREFIX}_cache_byte_budget"),
            "Byte budget of the decoded-node cache (0 = entry-capped).",
            io.cache_byte_budget as f64,
        );
        counter_u64(
            &mut out,
            &format!("{PREFIX}_store_reads_total"),
            "Physical page reads at the store.",
            io.reads,
        );
        let name = format!("{PREFIX}_store_disk_reads_total");
        header(
            &mut out,
            &name,
            "Physical page reads per disk at the store.",
            "counter",
        );
        for (i, r) in io.reads_per_disk.iter().enumerate() {
            let _ = writeln!(out, "{name}{} {r}", labels_to_string(&label(i)));
        }
    }

    if let Some(server) = server {
        counter_u64(
            &mut out,
            &format!("{PREFIX}_backend_inline_reads_total"),
            "Backend reads served on the submitting thread, not by a disk worker.",
            server.inline_reads,
        );
        counter_u64(
            &mut out,
            &format!("{PREFIX}_polled_requests_total"),
            "Requests a connection thread found by polling its socket, not woken from a blocking read.",
            server.polled_requests,
        );
    }

    if let Some(flight) = t.flight() {
        counter_u64(
            &mut out,
            &format!("{PREFIX}_flight_events_total"),
            "Events recorded by the flight recorder (retention is bounded).",
            flight.recorded(),
        );
    }

    out.push_str("# EOF\n");
    out
}

/// One parsed sample line.
struct Sample<'a> {
    name: &'a str,
    labels: BTreeMap<&'a str, &'a str>,
    value: f64,
}

fn parse_sample(line: &str) -> Option<Sample<'_>> {
    let (head, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match head.find('{') {
        Some(open) => {
            let name = &head[..open];
            let body = head[open + 1..].strip_suffix('}')?;
            let mut labels = BTreeMap::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=')?;
                labels.insert(k, v.strip_prefix('"')?.strip_suffix('"')?);
            }
            (name, labels)
        }
        None => (head, BTreeMap::new()),
    };
    Some(Sample {
        name,
        labels,
        value,
    })
}

/// The family a sample belongs to: histogram sample suffixes map back to
/// the declared family name.
fn family_of<'a>(name: &'a str, histograms: &BTreeMap<&'a str, ()>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if histograms.contains_key(base) {
                return base;
            }
        }
    }
    name
}

/// Lints a rendered exposition document. Returns the violated
/// invariants, empty when the document is clean.
pub fn lint(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut help: BTreeMap<&str, ()> = BTreeMap::new();
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut histograms: BTreeMap<&str, ()> = BTreeMap::new();

    // Pass 1: declarations.
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if let Some((name, _)) = rest.split_once(' ') {
                help.insert(name, ());
            } else {
                errors.push(format!("HELP line without text: {line:?}"));
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                types.insert(name, kind);
                if kind == "histogram" {
                    histograms.insert(name, ());
                }
            } else {
                errors.push(format!("TYPE line without kind: {line:?}"));
            }
        }
    }

    if text.lines().last() != Some("# EOF") {
        errors.push("document does not end with # EOF".into());
    }

    // Pass 2: samples. Histogram bucket series are grouped by family +
    // non-le labels so multi-series (per-disk) families lint per disk.
    type SeriesKey<'a> = (&'a str, Vec<(&'a str, &'a str)>);
    let mut buckets: BTreeMap<SeriesKey<'_>, Vec<(f64, u64)>> = BTreeMap::new();
    let mut sums: BTreeMap<SeriesKey<'_>, f64> = BTreeMap::new();
    let mut counts: BTreeMap<SeriesKey<'_>, u64> = BTreeMap::new();

    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let Some(s) = parse_sample(line) else {
            errors.push(format!("unparseable sample line: {line:?}"));
            continue;
        };
        let family = family_of(s.name, &histograms);
        if !help.contains_key(family) {
            errors.push(format!("sample {:?} has no # HELP for {family}", s.name));
        }
        if !types.contains_key(family) {
            errors.push(format!("sample {:?} has no # TYPE for {family}", s.name));
            continue;
        }
        if histograms.contains_key(family) {
            let rest: Vec<(&str, &str)> = s
                .labels
                .iter()
                .filter(|(k, _)| **k != "le")
                .map(|(k, v)| (*k, *v))
                .collect();
            let key = (family, rest);
            if s.name.ends_with("_bucket") {
                let Some(le) = s.labels.get("le") else {
                    errors.push(format!("bucket without le label: {line:?}"));
                    continue;
                };
                let bound = if *le == "+Inf" {
                    f64::INFINITY
                } else {
                    match le.parse::<f64>() {
                        Ok(b) => b,
                        Err(_) => {
                            errors.push(format!("bad le bound {le:?} in {line:?}"));
                            continue;
                        }
                    }
                };
                buckets
                    .entry(key)
                    .or_default()
                    .push((bound, s.value as u64));
            } else if s.name.ends_with("_sum") {
                sums.insert(key, s.value);
            } else if s.name.ends_with("_count") {
                counts.insert(key, s.value as u64);
            }
        }
    }

    for (key, series) in &buckets {
        let label = format!("{}{:?}", key.0, key.1);
        for pair in series.windows(2) {
            if pair[1].0 <= pair[0].0 {
                errors.push(format!("{label}: le bounds not ascending"));
            }
            if pair[1].1 < pair[0].1 {
                errors.push(format!("{label}: cumulative buckets not monotone"));
            }
        }
        let Some(&(last_bound, last_cum)) = series.last() else {
            continue;
        };
        if !last_bound.is_infinite() {
            errors.push(format!("{label}: missing le=\"+Inf\" bucket"));
        }
        match counts.get(key) {
            Some(&c) if c == last_cum => {}
            Some(&c) => errors.push(format!("{label}: _count {c} != +Inf bucket {last_cum}")),
            None => errors.push(format!("{label}: missing _count")),
        }
        if !sums.contains_key(key) {
            errors.push(format!("{label}: missing _sum"));
        }
    }
    for key in counts.keys() {
        if !buckets.contains_key(key) {
            errors.push(format!("{}{:?}: _count without buckets", key.0, key.1));
        }
    }

    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::QueryExplain;

    fn populated() -> LiveTelemetry {
        let t = LiveTelemetry::new(2).with_flight_recorder(32);
        for q in 0..5u32 {
            let id = t.begin_query();
            assert_eq!(id, q);
            t.observe_disk_read(q % 2, 200_000, 1_500_000, q);
            t.observe_query(
                &QueryExplain {
                    query: id,
                    algo: "CRSS".into(),
                    k: 10,
                    answers: 10,
                    nodes: 12,
                    batches: 3,
                    response_ms: (q + 1) as f64 * 2.0,
                    disk_queue_ms: 0.2,
                    disk_service_ms: 1.5,
                    cpu_ms: 0.09,
                    ..QueryExplain::default()
                },
                false,
            );
        }
        t
    }

    #[test]
    fn render_passes_lint() {
        let t = populated();
        let io = sqda_storage::IoStats {
            reads: 60,
            writes: 0,
            reads_per_disk: vec![31, 29],
            writes_per_disk: vec![0, 0],
            cache_hits: 40,
            cache_misses: 60,
            cache_resident_bytes: 12_288,
            cache_byte_budget: 65_536,
            ..sqda_storage::IoStats::default()
        };
        let server = ServerCounters {
            inline_reads: 17,
            polled_requests: 9,
        };
        let text = render(&t, Some(&io), Some(server));
        let errors = lint(&text);
        assert!(errors.is_empty(), "lint errors: {errors:#?}");
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("sqda_queries_completed_total 5"));
        assert!(text.contains("sqda_model_residual_accesses 0"));
        assert!(text.contains("sqda_model_residual_latency 0"));
        assert!(text.contains("sqda_cache_resident_bytes 12288"));
        assert!(text.contains("sqda_cache_byte_budget 65536"));
        assert!(text.contains("sqda_response_ms_count 5"));
        assert!(text.contains("sqda_disk_reads_total{disk=\"0\"} 3"));
        assert!(text.contains("sqda_cache_hit_ratio 0.4"));
        assert!(text.contains("sqda_disk_service_time_ms_bucket{disk=\"1\",le=\"+Inf\"} 2"));
        assert!(text.contains("sqda_backend_inline_reads_total 17"));
        assert!(text.contains("sqda_polled_requests_total 9"));
        assert!(text.contains("sqda_flight_events_total"));
    }

    /// The full exposition for a fixed registry, pinned byte-for-byte
    /// (wall-clock-dependent gauges are normalized to `<wall>`): any
    /// rename, reorder, HELP rewording or bucket-layout change must
    /// update `src/testdata/prometheus_golden.txt` deliberately,
    /// because dashboards and scrape configs key on these names.
    #[test]
    fn golden_exposition() {
        let t = LiveTelemetry::new(1);
        for q in 0..2u32 {
            let id = t.begin_query();
            t.observe_disk_read(0, 250_000, 1_000_000, q);
            t.observe_query(
                &QueryExplain {
                    query: id,
                    algo: "CRSS".into(),
                    k: 5,
                    answers: 5,
                    nodes: 8,
                    batches: 2,
                    response_ms: (q + 1) as f64 * 4.0,
                    disk_queue_ms: 0.25,
                    disk_service_ms: 1.0,
                    cpu_ms: 0.05,
                    ..QueryExplain::default()
                },
                false,
            );
        }
        let wall = [
            "sqda_uptime_seconds ",
            "sqda_window_qps ",
            "sqda_disk_utilization{",
        ];
        let normalized: String = render(&t, None, None)
            .lines()
            .map(|l| {
                if wall.iter().any(|p| l.starts_with(p)) {
                    let (head, _) = l.rsplit_once(' ').unwrap();
                    format!("{head} <wall>\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let golden = include_str!("testdata/prometheus_golden.txt");
        assert_eq!(normalized, golden, "exposition drifted from the golden");
    }

    #[test]
    fn lint_catches_violations() {
        // No HELP/TYPE, no EOF.
        let errs = lint("orphan_metric 1\n");
        assert!(errs.iter().any(|e| e.contains("no # HELP")));
        assert!(errs.iter().any(|e| e.contains("no # TYPE")));
        assert!(errs.iter().any(|e| e.contains("# EOF")));

        // Non-monotone buckets and missing +Inf/_sum/_count.
        let bad = "\
# HELP h x
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
# EOF";
        let errs = lint(bad);
        assert!(errs.iter().any(|e| e.contains("not monotone")));
        assert!(errs.iter().any(|e| e.contains("+Inf")));
        assert!(errs.iter().any(|e| e.contains("missing _count")));
        assert!(errs.iter().any(|e| e.contains("missing _sum")));

        // _count disagreeing with the +Inf bucket.
        let bad2 = "\
# HELP h x
# TYPE h histogram
h_bucket{le=\"+Inf\"} 4
h_sum 1.0
h_count 9
# EOF";
        let errs = lint(bad2);
        assert!(errs.iter().any(|e| e.contains("!= +Inf bucket")));
    }

    #[test]
    fn quantile_bracket_contains_exact_percentiles() {
        // The live histogram's bracket must contain the exact
        // percentile of the raw samples under the same rank convention.
        let t = LiveTelemetry::new(1);
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 0.7).collect();
        for (i, &s) in samples.iter().enumerate() {
            t.begin_query();
            t.observe_query(
                &QueryExplain {
                    query: i as u32,
                    algo: "CRSS".into(),
                    k: 1,
                    answers: 1,
                    nodes: 1,
                    batches: 1,
                    response_ms: s,
                    ..QueryExplain::default()
                },
                false,
            );
        }
        let hist = t.snapshot().response_ms;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.95, 0.99] {
            let pos = q * (sorted.len() - 1) as f64;
            let lo = sorted[pos.floor() as usize];
            let hi = sorted[pos.ceil() as usize];
            let exact = lo + (hi - lo) * (pos - pos.floor());
            let (bl, bu) = hist.quantile_bracket(q);
            assert!(
                bl <= exact && exact <= bu,
                "q={q}: exact {exact} outside bracket [{bl}, {bu}]"
            );
        }
    }
}

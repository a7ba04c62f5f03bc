//! Metrics registry: counters and fixed-bucket histograms, plus the
//! [`MetricsSnapshot`] folded from a recorded event stream.
//!
//! The histograms use fixed, pre-declared bucket upper bounds (in
//! milliseconds for time distributions) rather than adaptive binning, so
//! snapshots from different runs are directly comparable.

use crate::event::Event;
use crate::json::{f64_array, u64_array, ObjWriter};
use sqda_storage::IoStats;
use std::collections::BTreeMap;

/// A monotone event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Adds `n` to the count.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
}

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper bound of
/// bucket `i`; one implicit overflow bucket catches the rest. Tracks
/// count/sum/min/max alongside the buckets so means and ranges survive
/// the bucketing.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Bucket bounds (ms) for component time distributions — spans queueing
/// delays from microseconds to the multi-second saturation regime of the
/// paper's high-λ runs.
pub const TIME_MS_BOUNDS: &[f64] = &[
    0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
    5000.0,
];

/// Bucket bounds for queue-depth distributions.
pub const DEPTH_BOUNDS: &[f64] = &[
    0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0, 128.0,
];

impl Histogram {
    /// Creates an empty histogram over the given static bounds.
    pub fn new(bounds: &'static [f64]) -> Self {
        Self {
            bounds,
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// The value range the `q`-quantile of the recorded observations is
    /// guaranteed to lie in, `(lower, upper)`, under the same
    /// linear-interpolation rank convention the real-clock engine uses
    /// for its percentiles (`rank = q * (count - 1)`). The interpolated
    /// percentile sits between the floor-rank and ceil-rank order
    /// statistics, so the bracket spans from the lower edge of the
    /// bucket holding the floor rank to the upper edge of the bucket
    /// holding the ceil rank (tightened by the recorded min/max).
    /// Returns `(0.0, 0.0)` when empty.
    pub fn quantile_bracket(&self, q: f64) -> (f64, f64) {
        if self.count == 0 {
            return (0.0, 0.0);
        }
        let pos = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let bucket_of = |rank: u64| -> usize {
            let mut cum = 0u64;
            for (i, &b) in self.buckets.iter().enumerate() {
                cum += b;
                if cum > rank {
                    return i;
                }
            }
            self.buckets.len() - 1
        };
        let lo_bucket = bucket_of(pos.floor() as u64);
        let hi_bucket = bucket_of(pos.ceil() as u64);
        let lower = if lo_bucket == 0 {
            self.min
        } else {
            self.bounds[lo_bucket - 1]
        };
        let upper = if hi_bucket == self.bounds.len() {
            self.max
        } else {
            self.bounds[hi_bucket].min(self.max)
        };
        (lower, upper)
    }

    fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.field_u64("count", self.count);
        o.field_f64("mean", self.mean());
        o.field_f64("min", if self.count == 0 { 0.0 } else { self.min });
        o.field_f64("max", self.max());
        o.field_raw("bounds", &f64_array(self.bounds));
        o.field_raw("buckets", &u64_array(&self.buckets));
        o.finish()
    }
}

/// Per-disk aggregates folded from `disk_service` events.
#[derive(Debug, Clone)]
pub struct DiskMetrics {
    /// Requests served.
    pub requests: Counter,
    /// Busy (seek+rotation+transfer) simulated time, ns.
    pub busy_ns: Counter,
    /// Time-in-queue distribution, ms.
    pub queue_time_ms: Histogram,
    /// Queue depth seen at each submission.
    pub queue_depth: Histogram,
}

impl DiskMetrics {
    pub(crate) fn new() -> Self {
        Self {
            requests: Counter::default(),
            busy_ns: Counter::default(),
            queue_time_ms: Histogram::new(TIME_MS_BOUNDS),
            queue_depth: Histogram::new(DEPTH_BOUNDS),
        }
    }
}

/// Everything the metrics layer knows after a run: component
/// distributions per disk, bus/CPU aggregates, per-query response
/// times, and cache behaviour folded from the store's [`IoStats`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Queries that arrived.
    pub queries_arrived: Counter,
    /// Queries that completed.
    pub queries_completed: Counter,
    /// Response-time distribution, ms.
    pub response_ms: Histogram,
    /// Per-disk metrics, keyed by disk index.
    pub disks: BTreeMap<u16, DiskMetrics>,
    /// Bus queueing-delay distribution, ms.
    pub bus_queue_ms: Histogram,
    /// Total bus busy time, ns.
    pub bus_busy_ns: Counter,
    /// CPU queueing-delay distribution, ms.
    pub cpu_queue_ms: Histogram,
    /// Total CPU busy time, ns.
    pub cpu_busy_ns: Counter,
    /// Fetch-batch size distribution.
    pub batch_size: Histogram,
    /// Page-cache hits (from the store).
    pub cache_hits: Counter,
    /// Page-cache misses (from the store).
    pub cache_misses: Counter,
    /// Physical reads per disk as reported by the store (includes
    /// requests the simulator never timed, e.g. tree builds).
    pub store_reads_per_disk: Vec<u64>,
    /// Reads served by a shadow replica because the primary was failed.
    pub degraded_reads: Counter,
    /// Re-probes of pages with no live replica.
    pub read_retries: Counter,
    /// Queries aborted after exhausting the retry budget.
    pub queries_aborted: Counter,
    /// Per-disk time spent failed or in a degraded window, ns.
    /// Failure spans without a recorded recovery are closed at the last
    /// event timestamp in the stream.
    pub disk_degraded_ns: BTreeMap<u16, u64>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self {
            queries_arrived: Counter::default(),
            queries_completed: Counter::default(),
            response_ms: Histogram::new(TIME_MS_BOUNDS),
            disks: BTreeMap::new(),
            bus_queue_ms: Histogram::new(TIME_MS_BOUNDS),
            bus_busy_ns: Counter::default(),
            cpu_queue_ms: Histogram::new(TIME_MS_BOUNDS),
            cpu_busy_ns: Counter::default(),
            batch_size: Histogram::new(DEPTH_BOUNDS),
            cache_hits: Counter::default(),
            cache_misses: Counter::default(),
            store_reads_per_disk: Vec::new(),
            degraded_reads: Counter::default(),
            read_retries: Counter::default(),
            queries_aborted: Counter::default(),
            disk_degraded_ns: BTreeMap::new(),
        }
    }

    /// Folds a recorded event stream into a snapshot.
    pub fn from_events(events: &[(u64, Event)]) -> Self {
        let mut s = Self::new();
        let max_ts = events.iter().map(|&(ts, _)| ts).max().unwrap_or(0);
        let mut open_failures: BTreeMap<u16, u64> = BTreeMap::new();
        for &(ts, ref ev) in events {
            match *ev {
                Event::QueryArrive { .. } => s.queries_arrived.add(1),
                Event::QueryComplete { response_ns, .. } => {
                    s.queries_completed.add(1);
                    s.response_ms.observe(response_ns as f64 / 1e6);
                }
                Event::BatchIssued { size, .. } => {
                    s.batch_size.observe(size as f64);
                }
                Event::DiskService {
                    disk,
                    queue_ns,
                    seek_ns,
                    rotation_ns,
                    transfer_ns,
                    queue_depth,
                    ..
                } => {
                    let d = s.disks.entry(disk).or_insert_with(DiskMetrics::new);
                    d.requests.add(1);
                    d.busy_ns.add(seek_ns + rotation_ns + transfer_ns);
                    d.queue_time_ms.observe(queue_ns as f64 / 1e6);
                    d.queue_depth.observe(queue_depth as f64);
                }
                Event::BusTransfer {
                    queue_ns,
                    transfer_ns,
                    ..
                } => {
                    s.bus_queue_ms.observe(queue_ns as f64 / 1e6);
                    s.bus_busy_ns.add(transfer_ns);
                }
                Event::CpuSlice {
                    queue_ns, exec_ns, ..
                } => {
                    s.cpu_queue_ms.observe(queue_ns as f64 / 1e6);
                    s.cpu_busy_ns.add(exec_ns);
                }
                Event::CrssState { .. } => {}
                Event::DiskFailed { disk } => {
                    open_failures.entry(disk).or_insert(ts);
                }
                Event::DiskRecovered { disk } => {
                    if let Some(start) = open_failures.remove(&disk) {
                        *s.disk_degraded_ns.entry(disk).or_insert(0) += ts.saturating_sub(start);
                    }
                }
                Event::DiskDegraded { disk, until_ns, .. } => {
                    *s.disk_degraded_ns.entry(disk).or_insert(0) += until_ns.saturating_sub(ts);
                }
                Event::DegradedRead { .. } => s.degraded_reads.add(1),
                Event::ReadRetry { .. } => s.read_retries.add(1),
                Event::QueryAbort { .. } => s.queries_aborted.add(1),
            }
        }
        // Permanent failures stay degraded through the end of the run.
        for (disk, start) in open_failures {
            *s.disk_degraded_ns.entry(disk).or_insert(0) += max_ts.saturating_sub(start);
        }
        s
    }

    /// Folds the store's I/O accounting (cache behaviour, physical read
    /// placement) into the snapshot.
    pub fn fold_io_stats(&mut self, io: &IoStats) {
        self.cache_hits.add(io.cache_hits);
        self.cache_misses.add(io.cache_misses);
        self.store_reads_per_disk = io.reads_per_disk.clone();
    }

    /// Coefficient of variation of per-disk *timed* request counts: 0
    /// for a perfectly balanced array, growing with skew. Uses the
    /// simulator's own request counts, not the store's, so it reflects
    /// exactly the traffic the queueing model saw.
    pub fn load_imbalance(&self) -> f64 {
        let counts: Vec<f64> = self.disks.values().map(|d| d.requests.0 as f64).collect();
        if counts.is_empty() {
            return 0.0;
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
        var.sqrt() / mean
    }

    /// Cache hit ratio in [0,1]; 0 when no accesses were folded in.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits.0 + self.cache_misses.0;
        if total == 0 {
            0.0
        } else {
            self.cache_hits.0 as f64 / total as f64
        }
    }

    /// Renders the snapshot as a pretty-stable JSON document (disk keys
    /// sorted, canonical field order).
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.field_u64("queries_arrived", self.queries_arrived.0);
        o.field_u64("queries_completed", self.queries_completed.0);
        o.field_raw("response_ms", &self.response_ms.to_json());
        o.field_f64("load_imbalance", self.load_imbalance());
        o.field_u64("cache_hits", self.cache_hits.0);
        o.field_u64("cache_misses", self.cache_misses.0);
        o.field_f64("cache_hit_ratio", self.cache_hit_ratio());
        o.field_raw(
            "store_reads_per_disk",
            &u64_array(&self.store_reads_per_disk),
        );
        o.field_raw("batch_size", &self.batch_size.to_json());
        o.field_raw("bus_queue_ms", &self.bus_queue_ms.to_json());
        o.field_u64("bus_busy_ns", self.bus_busy_ns.0);
        o.field_raw("cpu_queue_ms", &self.cpu_queue_ms.to_json());
        o.field_u64("cpu_busy_ns", self.cpu_busy_ns.0);
        o.field_u64("degraded_reads", self.degraded_reads.0);
        o.field_u64("read_retries", self.read_retries.0);
        o.field_u64("queries_aborted", self.queries_aborted.0);
        let mut degraded = String::from("{");
        for (i, (id, ns)) in self.disk_degraded_ns.iter().enumerate() {
            if i > 0 {
                degraded.push(',');
            }
            degraded.push_str(&format!("\"{id}\":{ns}"));
        }
        degraded.push('}');
        o.field_raw("disk_degraded_ns", &degraded);
        let mut disks = String::from("{");
        for (i, (id, d)) in self.disks.iter().enumerate() {
            if i > 0 {
                disks.push(',');
            }
            let mut dd = ObjWriter::new();
            dd.field_u64("requests", d.requests.0);
            dd.field_u64("busy_ns", d.busy_ns.0);
            dd.field_raw("queue_time_ms", &d.queue_time_ms.to_json());
            dd.field_raw("queue_depth", &d.queue_depth.to_json());
            disks.push_str(&format!("\"{id}\":{}", dd.finish()));
        }
        disks.push('}');
        o.field_raw("disks", &disks);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::new(TIME_MS_BOUNDS);
        h.observe(0.005); // bucket 0 (≤0.01)
        h.observe(0.5); // ≤0.5
        h.observe(9_999.0); // overflow
        assert_eq!(h.count(), 3);
        assert!((h.mean() - (0.005 + 0.5 + 9_999.0) / 3.0).abs() < 1e-9);
        assert_eq!(h.max(), 9_999.0);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[TIME_MS_BOUNDS.len()], 1);
    }

    fn disk_event(disk: u16, queue_ns: u64) -> (u64, Event) {
        (
            0,
            Event::DiskService {
                query: 0,
                disk,
                cylinder: 0,
                level: 0,
                queue_ns,
                seek_ns: 1_000_000,
                rotation_ns: 1_000_000,
                transfer_ns: 1_000_000,
                queue_depth: (queue_ns / 1_000_000) as u32,
            },
        )
    }

    #[test]
    fn balanced_vs_skewed_imbalance() {
        // Round-robin: 4 requests over 4 disks.
        let balanced: Vec<_> = (0..4u16).map(|d| disk_event(d, 0)).collect();
        let sb = MetricsSnapshot::from_events(&balanced);
        assert_eq!(sb.load_imbalance(), 0.0);

        // All 4 on one disk of the 4 (the other disks appear once so
        // the denominator matches).
        let mut skewed: Vec<_> = (0..4u16).map(|d| disk_event(d, 0)).collect();
        for _ in 0..12 {
            skewed.push(disk_event(0, 0));
        }
        let ss = MetricsSnapshot::from_events(&skewed);
        assert!(
            ss.load_imbalance() > 1.0,
            "skewed CV = {}",
            ss.load_imbalance()
        );
        assert!(ss.load_imbalance() > sb.load_imbalance());
    }

    #[test]
    fn snapshot_folds_fault_events() {
        let events = vec![
            (1_000, Event::DiskFailed { disk: 0 }),
            (6_000, Event::DiskRecovered { disk: 0 }),
            (2_000, Event::DiskFailed { disk: 1 }), // permanent
            (
                3_000,
                Event::DiskDegraded {
                    disk: 2,
                    until_ns: 8_000,
                    multiplier: 2.0,
                    extra_ns: 0,
                },
            ),
            (
                4_000,
                Event::DegradedRead {
                    query: 0,
                    disk: 0,
                    replica: 2,
                },
            ),
            (
                5_000,
                Event::ReadRetry {
                    query: 1,
                    disk: 1,
                    attempt: 1,
                },
            ),
            (
                10_000,
                Event::QueryAbort {
                    query: 1,
                    disk: 1,
                    attempts: 3,
                },
            ),
        ];
        let s = MetricsSnapshot::from_events(&events);
        assert_eq!(s.degraded_reads.0, 1);
        assert_eq!(s.read_retries.0, 1);
        assert_eq!(s.queries_aborted.0, 1);
        assert_eq!(s.disk_degraded_ns.get(&0), Some(&5_000)); // closed by recovery
        assert_eq!(s.disk_degraded_ns.get(&1), Some(&8_000)); // closed at last ts
        assert_eq!(s.disk_degraded_ns.get(&2), Some(&5_000)); // window length
        let doc = parse(&s.to_json()).unwrap();
        assert_eq!(doc.get("degraded_reads").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("queries_aborted").unwrap().as_u64(), Some(1));
        let deg = doc.get("disk_degraded_ns").unwrap();
        assert_eq!(deg.get("1").unwrap().as_u64(), Some(8_000));
    }

    #[test]
    fn snapshot_folds_events_and_renders_json() {
        let events = vec![
            (0, Event::QueryArrive { query: 0 }),
            disk_event(0, 2_000_000),
            (
                5_000_000,
                Event::QueryComplete {
                    query: 0,
                    response_ns: 5_000_000,
                    nodes: 1,
                    batches: 1,
                    disk_queue_ns: 2_000_000,
                    seek_ns: 1_000_000,
                    rotation_ns: 1_000_000,
                    transfer_ns: 1_000_000,
                    bus_queue_ns: 0,
                    bus_ns: 400_000,
                    cpu_queue_ns: 0,
                    cpu_ns: 100_000,
                },
            ),
        ];
        let mut s = MetricsSnapshot::from_events(&events);
        let io = IoStats {
            reads: 10,
            writes: 0,
            reads_per_disk: vec![10],
            writes_per_disk: vec![0],
            cache_hits: 3,
            cache_misses: 7,
            ..IoStats::default()
        };
        s.fold_io_stats(&io);
        assert_eq!(s.queries_completed.0, 1);
        assert!((s.cache_hit_ratio() - 0.3).abs() < 1e-12);
        let d0 = s.disks.get(&0).unwrap();
        assert_eq!(d0.requests.0, 1);
        assert_eq!(d0.busy_ns.0, 3_000_000);
        assert_eq!(d0.queue_time_ms.count(), 1);

        let doc = parse(&s.to_json()).unwrap();
        assert_eq!(doc.get("queries_completed").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("cache_hits").unwrap().as_u64(), Some(3));
        let disks = doc.get("disks").unwrap();
        let dj = disks.get("0").unwrap();
        assert_eq!(dj.get("requests").unwrap().as_u64(), Some(1));
        assert!(dj.get("queue_depth").unwrap().get("buckets").is_some());
    }
}

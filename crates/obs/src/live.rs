//! The live telemetry plane: the metrics a serving process updates on its
//! query path and scrapes while running.
//!
//! The post-hoc [`Recorder`](crate::Recorder) seam of this crate is
//! single-threaded (`&mut dyn Recorder`) and only yields numbers after a
//! run ends; a TCP server answering queries needs shared, always-on
//! registries that its connection and disk-worker threads update and any
//! thread can snapshot at any moment. This module provides that plane:
//!
//! * [`LiveTelemetry`] — the registry: query counters, the response-time
//!   and per-component distributions, per-disk service metrics, a sliding
//!   window for rolling qps and windowed percentiles, and the drift
//!   windows of the model residuals, all plain data behind one mutex. It
//!   snapshots into the existing [`MetricsSnapshot`] vocabulary and
//!   renders Prometheus text via [`prometheus`](crate::prometheus);
//! * [`FlightRecorder`] — a bounded queue of recent obs [`Event`]s (the
//!   "flight recorder"): always recording, drained on demand into a
//!   Perfetto trace without ever growing;
//! * the slow-query log — an append-only JSONL file of queries that ran
//!   over a threshold, with the full per-component breakdown.
//!
//! The engine writes once per query, at completion or abort: it hands
//! [`LiveTelemetry::observe_query`] the query's one
//! [`QueryExplain`](crate::QueryExplain) record, after
//! [`LiveTelemetry::begin_query`] at pickup; the I/O backend's disk
//! workers feed each read on their own.
//!
//! Overhead contract: an update takes the registry's lock once and does
//! a few integer adds and bucket searches under it (a disk's first read
//! also inserts its entry); nothing under the lock sorts, formats, does
//! I/O or calls out of this crate. A scrape copies under the lock and
//! sorts, computes percentiles and formats after releasing it, so it
//! reads one consistent state and holds writers off only for the copy.
//! The flight recorder and the slow-query log each have their own lock;
//! the log's file is written after the registry's lock is released, and
//! only by queries that already blew the threshold.

use crate::event::{Event, Recorder};
use crate::explain::QueryExplain;
use crate::json::ObjWriter;
use crate::metrics::{DiskMetrics, Histogram, MetricsSnapshot, TIME_MS_BOUNDS};
use crate::stats::percentile;
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks `m`, recovering the guard if a holder panicked: every update
/// leaves the data valid (counts and buckets only ever grow), and
/// telemetry must never fail a query.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sliding-window length: one minute.
pub const DEFAULT_WINDOW_NS: u64 = 60_000_000_000;

/// Completions (and residuals) a window retains for its percentiles.
pub const DEFAULT_WINDOW_CAP: usize = 8192;

/// The last `capacity` items pushed, oldest first, and the count of every
/// item ever pushed.
struct Bounded<T> {
    items: VecDeque<T>,
    capacity: usize,
    pushed: u64,
}

impl<T> Bounded<T> {
    fn new(capacity: usize) -> Self {
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
            pushed: 0,
        }
    }

    /// Appends `item`, dropping the oldest once full.
    fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(item);
        self.pushed += 1;
    }
}

/// A window of `(completion timestamp ns, value)` samples.
type Window = Bounded<(u64, f64)>;

impl Window {
    /// Copies out the values inside the window ending at `now_ns`, with
    /// the span in ns their rate covers. The span is the effective
    /// window: while the run is younger than the window (`now_ns` counts
    /// from registry creation) it is the run's age, and once the queue
    /// dropped samples it reaches back only to the oldest one retained —
    /// never over uncovered time.
    fn recent(&self, now_ns: u64) -> (Vec<f64>, u64) {
        let floor = now_ns.saturating_sub(DEFAULT_WINDOW_NS);
        let mut oldest = now_ns;
        let values = self
            .items
            .iter()
            .filter(|&&(ts, _)| ts >= floor && ts <= now_ns)
            .map(|&(ts, v)| {
                oldest = oldest.min(ts);
                v
            })
            .collect();
        let span_ns = if self.pushed > self.capacity as u64 {
            now_ns.saturating_sub(oldest)
        } else {
            DEFAULT_WINDOW_NS.min(now_ns)
        };
        (values, span_ns.max(1))
    }
}

/// Mean of `values`, 0 when empty (the residual gauges' idle reading).
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What the sliding window knows right now.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Completions inside the window (bounded by the window capacity).
    pub samples: u64,
    /// Completions per second over the effective window.
    pub qps: f64,
    /// Windowed median response, ms.
    pub p50_ms: f64,
    /// Windowed 95th-percentile response, ms.
    pub p95_ms: f64,
    /// Windowed 99th-percentile response, ms.
    pub p99_ms: f64,
}

impl WindowStats {
    /// Aggregates what [`Window::recent`] copied out.
    fn of((mut values, span_ns): (Vec<f64>, u64)) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        values.sort_by(f64::total_cmp);
        Self {
            samples: values.len() as u64,
            qps: values.len() as f64 / (span_ns as f64 / 1e9),
            p50_ms: percentile(&values, 0.50),
            p95_ms: percentile(&values, 0.95),
            p99_ms: percentile(&values, 0.99),
        }
    }
}

/// A bounded queue of recent obs [`Event`]s, always recording while the
/// server runs; `drain` copies it into timestamp order for Perfetto
/// export (`DUMP-TRACE`).
pub struct FlightRecorder {
    events: Mutex<Bounded<(u64, Event)>>,
}

impl FlightRecorder {
    fn new(capacity: usize) -> Self {
        Self {
            events: Mutex::new(Bounded::new(capacity)),
        }
    }

    fn record(&self, ts_ns: u64, event: Event) {
        lock(&self.events).push((ts_ns, event));
    }

    /// Total events ever recorded (retention is bounded by capacity).
    pub fn recorded(&self) -> u64 {
        lock(&self.events).pushed
    }

    /// The retained events in timestamp order.
    pub fn drain(&self) -> Vec<(u64, Event)> {
        let mut events: Vec<_> = lock(&self.events).items.iter().copied().collect();
        events.sort_by_key(|&(ts, _)| ts);
        events
    }
}

/// One slow-query log line: serving id, algorithm, k, answer count, the
/// full per-component response-time breakdown, and — for an explained
/// query — the rendered record itself under an `explain` key.
fn slow_line(ts_ns: u64, r: &QueryExplain, explained: bool) -> String {
    let mut w = ObjWriter::new();
    w.field_u64("ts_ns", ts_ns);
    w.field_u64("query", r.query as u64);
    w.field_str("algo", &r.algo);
    w.field_u64("k", r.k as u64);
    w.field_u64("answers", r.answers as u64);
    w.field_u64("nodes", r.nodes);
    w.field_u64("batches", r.batches as u64);
    w.field_f64("response_ms", r.response_ms);
    w.field_f64("disk_queue_ms", r.disk_queue_ms);
    w.field_f64("disk_service_ms", r.disk_service_ms);
    w.field_f64("cpu_ms", r.cpu_ms);
    w.field_bool("failed", r.failed);
    if explained {
        w.field_raw("explain", &r.to_json());
    }
    w.finish()
}

/// The per-disk figures only the live plane keeps; reads, busy time and
/// the queue-time and depth distributions are the snapshot's
/// [`DiskMetrics`].
#[derive(Clone)]
pub(crate) struct LiveDisk {
    /// Cumulative time requests waited in this disk's queue, ns.
    pub(crate) queue_ns: u64,
    /// Queue depth seen by the most recent submission (gauge).
    pub(crate) depth: u32,
    /// Distribution of per-read service time, ms.
    pub(crate) service_ms: Histogram,
}

/// The registry's counts and distributions: what a scrape copies whole.
#[derive(Clone)]
pub(crate) struct Books {
    /// Arrivals, completions, aborts, degraded reads, the response-time
    /// and batch-size distributions and the per-disk [`DiskMetrics`] of
    /// every disk that served a read.
    pub(crate) metrics: MetricsSnapshot,
    /// Completed queries over the slow-query threshold.
    pub(crate) slow_queries: u64,
    /// Per-query total time-in-disk-queue distribution, ms.
    pub(crate) disk_queue_ms: Histogram,
    /// Per-query total disk service time distribution, ms.
    pub(crate) disk_service_ms: Histogram,
    /// Per-query total CPU time distribution, ms.
    pub(crate) cpu_ms: Histogram,
    /// One entry per disk of the array.
    pub(crate) disks: Vec<LiveDisk>,
}

/// Everything behind the registry's lock.
struct State {
    books: Books,
    window: Window,
    residual_accesses: Window,
    residual_latency: Window,
}

/// One consistent copy of the registry, taken by a scrape.
pub(crate) struct Scrape {
    /// Nanoseconds since the registry was created, at the copy.
    pub(crate) uptime_ns: u64,
    pub(crate) books: Books,
    pub(crate) window: WindowStats,
    /// Windowed mean observed-minus-predicted node accesses.
    pub(crate) residual_accesses: f64,
    /// Windowed mean observed-minus-predicted response time, ms.
    pub(crate) residual_latency_ms: f64,
}

/// The live registry for the serving stack: query counters and latency
/// distributions, per-query component breakdowns, per-disk service
/// metrics, a sliding window, a flight recorder and the slow-query log,
/// all shared (`&self` everywhere).
pub struct LiveTelemetry {
    started: Instant,
    state: Mutex<State>,
    flight: Option<FlightRecorder>,
    slow_log: Option<Mutex<std::fs::File>>,
    slow_threshold_ms: f64,
}

impl LiveTelemetry {
    /// A registry for an array of `num_disks` disks, with a one-minute
    /// sliding window and no flight recorder or slow-query log.
    pub fn new(num_disks: u32) -> Self {
        let disk = LiveDisk {
            queue_ns: 0,
            depth: 0,
            service_ms: Histogram::new(TIME_MS_BOUNDS),
        };
        let books = Books {
            metrics: MetricsSnapshot::new(),
            slow_queries: 0,
            disk_queue_ms: Histogram::new(TIME_MS_BOUNDS),
            disk_service_ms: Histogram::new(TIME_MS_BOUNDS),
            cpu_ms: Histogram::new(TIME_MS_BOUNDS),
            disks: vec![disk; num_disks as usize],
        };
        Self {
            started: Instant::now(),
            state: Mutex::new(State {
                books,
                window: Window::new(DEFAULT_WINDOW_CAP),
                residual_accesses: Window::new(DEFAULT_WINDOW_CAP),
                residual_latency: Window::new(DEFAULT_WINDOW_CAP),
            }),
            flight: None,
            slow_log: None,
            slow_threshold_ms: f64::INFINITY,
        }
    }

    /// Enables the flight recorder with `capacity` retained events
    /// (0 disables it again).
    pub fn with_flight_recorder(mut self, capacity: usize) -> Self {
        self.flight = (capacity > 0).then(|| FlightRecorder::new(capacity));
        self
    }

    /// Enables the slow-query log: completions at or over
    /// `threshold_ms` append a JSONL breakdown line to `path` (created,
    /// or truncated).
    pub fn with_slow_query_log(mut self, path: &Path, threshold_ms: f64) -> std::io::Result<Self> {
        self.slow_log = Some(Mutex::new(std::fs::File::create(path)?));
        self.slow_threshold_ms = threshold_ms.max(0.0);
        Ok(self)
    }

    /// Disks in the observed array.
    pub fn num_disks(&self) -> u32 {
        lock(&self.state).books.disks.len() as u32
    }

    /// Nanoseconds since the registry was created (the timestamp base
    /// of the flight recorder and the sliding window).
    pub fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Whether events should be constructed for the flight recorder.
    #[inline]
    pub fn flight_enabled(&self) -> bool {
        self.flight.is_some()
    }

    /// The flight recorder, if enabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Assigns the next global serving query id and counts the pickup.
    pub fn begin_query(&self) -> u32 {
        let mut s = lock(&self.state);
        let arrived = &mut s.books.metrics.queries_arrived;
        arrived.add(1);
        (arrived.0 - 1) as u32
    }

    /// Records one event into the flight recorder (no-op when the
    /// recorder is disabled).
    #[inline]
    pub fn record_event(&self, ts_ns: u64, event: Event) {
        if let Some(flight) = &self.flight {
            flight.record(ts_ns, event);
        }
    }

    /// Feeds one finished or aborted query into every live aggregate,
    /// under one lock: the batch-size distribution takes every round the
    /// query issued; an aborted one (`record.failed`) is then only
    /// counted. A completed one feeds the counters, the latency and
    /// component histograms, the sliding window, the drift windows when
    /// the record carries a prediction, and — when it ran over the
    /// threshold — the slow-query log, whose line embeds the rendered
    /// record when the query was `explained`.
    pub fn observe_query(&self, record: &QueryExplain, explained: bool) {
        let now = self.now_ns();
        let slow = {
            let mut s = lock(&self.state);
            let b = &mut s.books;
            for &pages in &record.batch_sizes {
                b.metrics.batch_size.observe(pages as f64);
            }
            if record.failed {
                b.metrics.queries_aborted.add(1);
                return;
            }
            b.metrics.queries_completed.add(1);
            b.metrics.response_ms.observe(record.response_ms);
            b.disk_queue_ms.observe(record.disk_queue_ms);
            b.disk_service_ms.observe(record.disk_service_ms);
            b.cpu_ms.observe(record.cpu_ms);
            let slow = record.response_ms >= self.slow_threshold_ms;
            b.slow_queries += slow as u64;
            s.window.push((now, record.response_ms));
            // A saturated prediction has no latency residual; the access
            // residual still lands.
            if let Some(accesses) = record.residual_accesses().filter(|v| v.is_finite()) {
                s.residual_accesses.push((now, accesses));
            }
            if let Some(latency) = record.residual_response_ms().filter(|v| v.is_finite()) {
                s.residual_latency.push((now, latency));
            }
            slow
        };
        if let Some(file) = self.slow_log.as_ref().filter(|_| slow) {
            let line = slow_line(now, record, explained);
            // Telemetry must never fail the query: drop the line on I/O
            // errors rather than surface them into the serving path.
            let _ = writeln!(lock(file), "{line}");
        }
    }

    /// Feeds one disk read (called from the I/O backend's worker
    /// threads through the `ReadObserver` seam).
    pub fn observe_disk_read(&self, disk: u32, queue_ns: u64, service_ns: u64, queue_depth: u32) {
        let mut s = lock(&self.state);
        let b = &mut s.books;
        let Some(live) = b.disks.get_mut(disk as usize) else {
            return;
        };
        live.queue_ns += queue_ns;
        live.depth = queue_depth;
        live.service_ms.observe(service_ns as f64 / 1e6);
        let d = b
            .metrics
            .disks
            .entry(disk as u16)
            .or_insert_with(DiskMetrics::new);
        d.requests.add(1);
        d.busy_ns.add(service_ns);
        d.queue_time_ms.observe(queue_ns as f64 / 1e6);
        d.queue_depth.observe(queue_depth as f64);
    }

    /// Current sliding-window aggregates.
    pub fn window_stats(&self) -> WindowStats {
        self.stats().0
    }

    /// What `STATS` reports of the registry, read under one lock: the
    /// sliding-window aggregates and the degraded-read count.
    pub fn stats(&self) -> (WindowStats, u64) {
        let (recent, degraded_reads) = {
            let s = lock(&self.state);
            (
                s.window.recent(self.now_ns()),
                s.books.metrics.degraded_reads.0,
            )
        };
        (WindowStats::of(recent), degraded_reads)
    }

    /// Snapshots the live registries into the post-hoc
    /// [`MetricsSnapshot`] vocabulary (cache behaviour is the store's;
    /// fold an `IoStats` in afterwards like any other snapshot). Disks
    /// that served no read are absent.
    pub fn snapshot(&self) -> MetricsSnapshot {
        lock(&self.state).books.metrics.clone()
    }

    /// Copies the whole registry under one lock, then aggregates the
    /// windows after releasing it.
    pub(crate) fn scrape(&self) -> Scrape {
        let (uptime_ns, books, window, accesses, latency) = {
            let s = lock(&self.state);
            let now = self.now_ns();
            (
                now,
                s.books.clone(),
                s.window.recent(now),
                s.residual_accesses.recent(now),
                s.residual_latency.recent(now),
            )
        };
        Scrape {
            uptime_ns,
            books,
            window: WindowStats::of(window),
            residual_accesses: mean(&accesses.0),
            residual_latency_ms: mean(&latency.0),
        }
    }

    /// Renders the whole registry as Prometheus text exposition, with
    /// the store's [`IoStats`](sqda_storage::IoStats) and the server's
    /// [`ServerCounters`](crate::prometheus::ServerCounters) when given;
    /// see [`prometheus`](crate::prometheus) for the format contract.
    pub fn prometheus(
        &self,
        io: Option<&sqda_storage::IoStats>,
        server: Option<crate::prometheus::ServerCounters>,
    ) -> String {
        crate::prometheus::render(self, io, server)
    }
}

/// The hook the I/O backends call from whichever thread served a read:
/// [`LiveTelemetry`] *is* a [`sqda_storage::ReadObserver`], so
/// `ThreadedFileBackend::with_observer(store, telemetry)` feeds the
/// per-disk registries without the storage crate knowing any metrics
/// vocabulary.
impl sqda_storage::ReadObserver for LiveTelemetry {
    fn on_disk_read(&self, disk: u32, queue_ns: u64, service_ns: u64, queue_depth: u32) {
        self.observe_disk_read(disk, queue_ns, service_ns, queue_depth);
    }
}

/// The flight ring as an executor's event sink: each event keeps the
/// stamp the executor gave it — the real-clock engine narrates on the
/// registry's own clock ([`LiveTelemetry::now_ns`]) — and nothing is
/// wanted while the ring is off.
impl Recorder for &LiveTelemetry {
    fn record(&mut self, ts_ns: u64, event: Event) {
        self.record_event(ts_ns, event);
    }

    fn enabled(&self) -> bool {
        self.flight_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(query: u32, response_ms: f64) -> QueryExplain {
        QueryExplain {
            query,
            algo: "CRSS".into(),
            k: 5,
            answers: 5,
            nodes: 7,
            batches: 2,
            batch_sizes: vec![1, 6],
            response_ms,
            disk_queue_ms: 1.0,
            disk_service_ms: 2.5,
            cpu_ms: 0.3,
            ..QueryExplain::default()
        }
    }

    fn arrive(query: u32) -> Event {
        Event::QueryArrive { query }
    }

    #[test]
    fn ring_keeps_latest_and_survives_wrap() {
        let f = FlightRecorder::new(4);
        for i in 1..=10u64 {
            f.record(i, arrive(i as u32));
        }
        let kept: Vec<u64> = f.drain().iter().map(|&(ts, _)| ts).collect();
        assert_eq!(kept, vec![7, 8, 9, 10]);
        assert_eq!(f.recorded(), 10);
    }

    #[test]
    fn ring_empty_and_partial() {
        let f = FlightRecorder::new(8);
        assert!(f.drain().is_empty());
        f.record(3, arrive(3));
        f.record(4, arrive(4));
        assert_eq!(f.drain(), vec![(3, arrive(3)), (4, arrive(4))]);
    }

    #[test]
    fn window_stats_rate_and_percentiles() {
        let mut w = Window::new(DEFAULT_WINDOW_CAP);
        // 20 completions, one per 100 ms, responses 1..=20 ms.
        for i in 0..20u64 {
            w.push((i * 100_000_000, (i + 1) as f64));
        }
        let s = WindowStats::of(w.recent(1_900_000_000));
        assert_eq!(s.samples, 20);
        // Run (1.9 s) younger than the window: qps over the covered span.
        assert!((s.qps - 20.0 / 1.9).abs() < 1e-6, "qps = {}", s.qps);
        assert!((s.p50_ms - 10.5).abs() < 1e-9);
        assert!(s.p95_ms > s.p50_ms && s.p99_ms >= s.p95_ms);
        // Far in the future: everything aged out.
        assert_eq!(WindowStats::of(w.recent(100_000_000_000)).samples, 0);

        // Once samples were dropped, qps divides by the span back to the
        // oldest one retained: 10 more at 1 ms steps from 2 s.
        let mut w = Window::new(DEFAULT_WINDOW_CAP);
        for i in 0..DEFAULT_WINDOW_CAP as u64 + 10 {
            w.push((2_000_000_000 + i * 1_000_000, 1.0));
        }
        let now = 2_000_000_000 + (DEFAULT_WINDOW_CAP as u64 + 9) * 1_000_000;
        let s = WindowStats::of(w.recent(now));
        assert_eq!(s.samples, DEFAULT_WINDOW_CAP as u64);
        let span_s = (DEFAULT_WINDOW_CAP as f64 - 1.0) * 1e-3;
        assert!((s.qps - DEFAULT_WINDOW_CAP as f64 / span_s).abs() < 1e-6);
    }

    #[test]
    fn flight_recorder_drains_in_timestamp_order() {
        let f = FlightRecorder::new(8);
        f.record(5, arrive(1));
        f.record(2, arrive(0));
        f.record(
            9,
            Event::QueryComplete {
                query: 0,
                response_ns: 7,
                nodes: 1,
                batches: 1,
                disk_queue_ns: 0,
                seek_ns: 0,
                rotation_ns: 0,
                transfer_ns: 0,
                bus_queue_ns: 0,
                bus_ns: 0,
                cpu_queue_ns: 0,
                cpu_ns: 0,
            },
        );
        let drained = f.drain();
        assert_eq!(drained.len(), 3);
        assert!(drained.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(f.recorded(), 3);
    }

    #[test]
    fn telemetry_counts_and_snapshots() {
        let t = LiveTelemetry::new(2).with_flight_recorder(16);
        let q0 = t.begin_query();
        let q1 = t.begin_query();
        assert_eq!((q0, q1), (0, 1));
        let text = t.prometheus(None, None);
        assert!(text.contains("\nsqda_inflight_queries 2\n"), "{text}");
        t.observe_disk_read(0, 1_000_000, 2_000_000, 3);
        t.observe_disk_read(1, 0, 500_000, 0);
        t.observe_disk_read(2, 0, 500_000, 0); // no such disk: ignored
        t.observe_query(&record(q0, 4.0), false);
        t.observe_query(
            &QueryExplain {
                answers: 0,
                failed: true,
                ..record(q1, 0.0)
            },
            false,
        );
        let snap = t.snapshot();
        assert_eq!(snap.queries_arrived.0, 2);
        assert_eq!(snap.queries_completed.0, 1);
        assert_eq!(snap.queries_aborted.0, 1);
        assert_eq!(snap.response_ms.count(), 1);
        // The aborted query's rounds count too.
        assert_eq!(snap.batch_size.count(), 4);
        assert_eq!(snap.batch_size.sum(), 14.0);
        assert_eq!(snap.disks.len(), 2);
        assert_eq!(snap.disks[&0].requests.0, 1);
        assert_eq!(snap.disks[&0].busy_ns.0, 2_000_000);
        let ws = t.window_stats();
        assert_eq!(ws.samples, 1);
        assert!((ws.p50_ms - 4.0).abs() < 1e-9);
        let scrape = t.scrape();
        assert_eq!(scrape.books.disks[0].depth, 3);
        assert_eq!(scrape.books.disks[0].queue_ns, 1_000_000);
        assert_eq!(scrape.books.cpu_ms.count(), 1);
        let text = t.prometheus(None, None);
        assert!(text.contains("\nsqda_inflight_queries 0\n"), "{text}");
        let utilization: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("sqda_disk_utilization{disk=\"0\"} "))
            .expect("disk 0 utilization sample")
            .parse()
            .unwrap();
        assert!(utilization > 0.0, "{utilization}");
    }

    #[test]
    fn slow_query_log_lines_and_threshold() {
        let dir = std::env::temp_dir().join(format!("sqda-slowlog-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("slow.jsonl");
        let t = LiveTelemetry::new(1)
            .with_slow_query_log(&path, 2.0)
            .unwrap();
        let fast = QueryExplain {
            algo: "BBSS".into(),
            answers: 3,
            ..record(0, 1.0) // 1 ms < 2 ms threshold
        };
        let slow = QueryExplain {
            query: 1,
            response_ms: 5.0,
            ..fast.clone()
        };
        t.begin_query();
        t.begin_query();
        t.observe_query(&fast, false);
        t.observe_query(&slow, false);
        assert_eq!(t.scrape().books.slow_queries, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let doc = crate::json::parse(lines[0]).unwrap();
        assert_eq!(doc.get("query").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("algo").unwrap().as_str(), Some("BBSS"));
        assert_eq!(doc.get("answers").unwrap().as_u64(), Some(3));
        assert!(doc.get("response_ms").unwrap().as_f64().unwrap() >= 2.0);
        assert!(doc.get("explain").is_none(), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn residual_windows_track_drift_means() {
        let t = LiveTelemetry::new(1);
        let means = |t: &LiveTelemetry| {
            let s = t.scrape();
            (s.residual_accesses, s.residual_latency_ms)
        };
        assert_eq!(means(&t), (0.0, 0.0));
        // 7 nodes in 4 ms, against these predictions.
        let predicted = |accesses, response_ms| QueryExplain {
            predicted: Some(crate::explain::Prediction {
                accesses,
                batches: 2.0,
                utilization: 0.5,
                response_ms,
            }),
            ..record(0, 4.0)
        };
        t.observe_query(&predicted(5.0, 3.5), true);
        t.observe_query(&predicted(3.0, 2.5), true);
        // Non-finite components are dropped, not recorded as zeros.
        t.observe_query(&predicted(f64::NAN, f64::INFINITY), true);
        // No prediction, or an abort: nothing to compare.
        t.observe_query(&record(0, 4.0), false);
        let aborted = QueryExplain {
            failed: true,
            ..predicted(0.0, 0.0)
        };
        t.observe_query(&aborted, true);
        let (accesses, latency) = means(&t);
        assert!((accesses - 3.0).abs() < 1e-9);
        assert!((latency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slow_log_embeds_explain_record() {
        let dir = std::env::temp_dir().join(format!("sqda-slowlog-ex-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("slow.jsonl");
        let t = LiveTelemetry::new(1)
            .with_slow_query_log(&path, 0.0)
            .unwrap();
        t.begin_query();
        t.observe_query(&record(0, 2.0), true);
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = crate::json::parse(text.lines().next().unwrap()).unwrap();
        let explain = doc.get("explain").unwrap();
        assert_eq!(explain.get("observed_accesses").unwrap().as_u64(), Some(7));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_histogram_observers_merge_exactly() {
        let t = LiveTelemetry::new(1);
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        t.observe_query(&record(0, (w * 1000 + i) as f64 / 10.0), false);
                    }
                });
            }
        });
        let mut plain = Histogram::new(TIME_MS_BOUNDS);
        for v in 0..4000u64 {
            plain.observe(v as f64 / 10.0);
        }
        let snap = t.snapshot().response_ms;
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.buckets(), plain.buckets());
        assert_eq!(snap.max(), plain.max());
    }

    /// A scrape reads one state: however it interleaves with writers, the
    /// completion counter and the response histogram it renders agree.
    #[test]
    fn scrape_racing_writers_reads_one_state() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let t = LiveTelemetry::new(1);
        let finished = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(5);
        let agree = |t: &LiveTelemetry| {
            let text = t.prometheus(None, None);
            let value = |name: &str| {
                let line = text.lines().find(|l| l.starts_with(name)).unwrap();
                line.rsplit_once(' ').unwrap().1.to_string()
            };
            let completed = value("sqda_queries_completed_total ");
            assert_eq!(completed, value("sqda_response_ms_count "));
            completed
        };
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let (t, barrier, finished) = (&t, &barrier, &finished);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..10_000u64 {
                        t.observe_query(&record(0, (w + i) as f64 / 100.0), false);
                    }
                    finished.fetch_add(1, SeqCst);
                });
            }
            barrier.wait();
            while finished.load(SeqCst) < 4 {
                agree(&t);
            }
        });
        assert_eq!(agree(&t), "40000");
    }
}

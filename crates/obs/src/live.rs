//! The live telemetry plane: sharded, lock-free metrics a serving
//! process mutates on its query hot path and scrapes while running.
//!
//! The post-hoc [`Recorder`](crate::Recorder) seam of this crate is
//! single-threaded (`&mut dyn Recorder`) and only yields numbers after a
//! run ends; a TCP server answering queries from a worker pool needs the
//! opposite: shared, always-on registries that many threads update
//! concurrently and any thread can snapshot at any moment. This module
//! provides that plane:
//!
//! * [`LiveCounter`] — a wait-free atomic monotone counter;
//! * [`LiveHistogram`] — a sharded atomic histogram over the same
//!   static log-spaced bucket bounds as [`Histogram`]; `observe` is
//!   wait-free on the bucket/count increments (plain `fetch_add`) and
//!   lock-free on the sum/min/max (CAS loops), and `snapshot()` merges
//!   the shards into an ordinary [`Histogram`] — observed from N
//!   threads it aggregates to exactly what the single-threaded
//!   histogram fed the same values would hold;
//! * [`WindowRing`] — a bounded ring of recent `(timestamp, value)`
//!   completions for rolling qps and windowed percentiles;
//! * [`FlightRecorder`] — a bounded ring of recent obs [`Event`]s (the
//!   "flight recorder"): always recording, drained on demand into a
//!   Perfetto trace without ever growing;
//! * [`SlowQueryLog`] — an append-only JSONL log of queries that ran
//!   over a threshold, with the full per-component breakdown;
//! * [`LiveTelemetry`] — the registry bundling all of the above for the
//!   serving stack, snapshotting into the existing [`MetricsSnapshot`]
//!   vocabulary and rendering Prometheus text via
//!   [`prometheus`](crate::prometheus).
//!
//! Overhead contract: nothing in the query path takes a lock. The rings
//! use per-slot sequence stamps (writers never wait; a reader that
//! catches a slot mid-write discards it), and the only mutex in the
//! module guards the slow-query log file — paid exclusively by queries
//! that already blew the latency threshold.

use crate::event::Event;
use crate::json::ObjWriter;
use crate::metrics::{
    Counter, DiskMetrics, Histogram, MetricsSnapshot, DEPTH_BOUNDS, TIME_MS_BOUNDS,
};
use crate::stats::percentile;
use std::cell::UnsafeCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of shards per [`LiveHistogram`]: enough that a worker pool of
/// typical width rarely collides on a cache line, small enough that
/// snapshot merges stay trivial.
const HIST_SHARDS: usize = 8;

/// A process-wide small integer identifying the calling thread, used to
/// spread threads across histogram shards. Assigned round-robin on
/// first use per thread, so a steady worker pool maps to distinct
/// shards whenever it is no wider than the shard count.
fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// Adds `v` to an atomic `f64` stored as bits (CAS loop; lock-free).
fn f64_fetch_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Lowers an atomic `f64` minimum to `v` if smaller (CAS loop).
fn f64_fetch_min(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while v < f64::from_bits(cur) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Raises an atomic `f64` maximum to `v` if larger (CAS loop).
fn f64_fetch_max(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while v > f64::from_bits(cur) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A wait-free monotone event count shared across threads — the live
/// twin of [`Counter`].
#[derive(Debug, Default)]
pub struct LiveCounter(AtomicU64);

impl LiveCounter {
    /// An empty counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Snapshot into the post-hoc vocabulary.
    pub fn snapshot(&self) -> Counter {
        Counter(self.get())
    }
}

/// One histogram shard, padded to its own cache line so concurrent
/// writers on different shards never false-share.
#[repr(align(64))]
struct HistShard {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistShard {
    fn new(n_buckets: usize) -> Self {
        Self {
            buckets: (0..n_buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// A sharded atomic histogram over the same static bucket bounds as
/// [`Histogram`]. Threads observe into the shard indexed by their
/// [`thread_slot`]; `snapshot()` merges the shards into an ordinary
/// [`Histogram`] whose buckets, count and extrema are exactly what a
/// single-threaded histogram fed the same values would hold (the sum
/// too whenever the values are exactly representable, e.g. integers —
/// f64 addition is order-sensitive only through rounding).
pub struct LiveHistogram {
    bounds: &'static [f64],
    shards: Box<[HistShard]>,
}

impl LiveHistogram {
    /// An empty histogram over `bounds` (see [`TIME_MS_BOUNDS`],
    /// [`DEPTH_BOUNDS`]).
    pub fn new(bounds: &'static [f64]) -> Self {
        Self {
            bounds,
            shards: (0..HIST_SHARDS)
                .map(|_| HistShard::new(bounds.len() + 1))
                .collect(),
        }
    }

    /// Records one observation. Bucket and count updates are single
    /// `fetch_add`s (wait-free); sum/min/max are CAS loops (lock-free).
    #[inline]
    pub fn observe(&self, v: f64) {
        // Same bucket rule as `Histogram::observe`: first inclusive
        // upper bound that fits, overflow bucket otherwise.
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        let shard = &self.shards[thread_slot() % HIST_SHARDS];
        shard.buckets[idx].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        f64_fetch_add(&shard.sum_bits, v);
        f64_fetch_min(&shard.min_bits, v);
        f64_fetch_max(&shard.max_bits, v);
    }

    /// Total observations across all shards.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Merges the shards into a plain [`Histogram`] snapshot.
    pub fn snapshot(&self) -> Histogram {
        let mut buckets = vec![0u64; self.bounds.len() + 1];
        let mut count = 0u64;
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for shard in &self.shards {
            for (acc, b) in buckets.iter_mut().zip(shard.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
            count += shard.count.load(Ordering::Relaxed);
            sum += f64::from_bits(shard.sum_bits.load(Ordering::Relaxed));
            min = min.min(f64::from_bits(shard.min_bits.load(Ordering::Relaxed)));
            max = max.max(f64::from_bits(shard.max_bits.load(Ordering::Relaxed)));
        }
        Histogram::from_raw(self.bounds, buckets, count, sum, min, max)
    }
}

/// One slot of a sequence-stamped ring: the generation stamp brackets
/// the payload write so readers can detect (and discard) a slot caught
/// mid-update without writers ever waiting.
struct SeqCell<T> {
    seq: AtomicU64,
    data: UnsafeCell<T>,
}

// Readers only dereference the cell between matching even sequence
// stamps; a racing writer makes the stamps differ and the read is
// discarded, so a torn value is never *used*. Payloads are plain-scalar
// `Copy` types.
unsafe impl<T: Copy + Send> Sync for SeqCell<T> {}

/// A bounded, lock-free multi-producer ring buffer of `Copy` records;
/// new records overwrite the oldest. Writers claim globally unique
/// indices with one `fetch_add` and never wait; `snapshot` returns the
/// most recent records best-effort (slots being overwritten during the
/// read are skipped). Built for telemetry: losing a record under
/// extreme contention is acceptable, blocking the hot path is not.
pub struct Ring<T: Copy> {
    slots: Box<[SeqCell<T>]>,
    head: AtomicU64,
}

impl<T: Copy + Send> Ring<T> {
    /// A ring of `capacity` slots primed with `placeholder` (never
    /// surfaced: unwritten slots keep sequence 0, which matches no
    /// generation).
    pub fn new(capacity: usize, placeholder: T) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            slots: (0..capacity)
                .map(|_| SeqCell {
                    seq: AtomicU64::new(0),
                    data: UnsafeCell::new(placeholder),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (≥ the number still resident).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Appends a record, overwriting the oldest once full.
    pub fn push(&self, value: T) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        // Odd stamp = write in progress; final stamp encodes the
        // generation, so a reader knows *which* record it saw.
        slot.seq.store(2 * i + 1, Ordering::Release);
        unsafe { std::ptr::write_volatile(slot.data.get(), value) };
        slot.seq.store(2 * i + 2, Ordering::Release);
    }

    /// The resident records, oldest first, skipping any slot a writer
    /// held mid-update at read time.
    pub fn snapshot(&self) -> Vec<T> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut out = Vec::with_capacity(head.min(cap) as usize);
        for i in head.saturating_sub(cap)..head {
            let slot = &self.slots[(i % cap) as usize];
            let want = 2 * i + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // torn or already overwritten
            }
            let value = unsafe { std::ptr::read_volatile(slot.data.get()) };
            if slot.seq.load(Ordering::Acquire) == want {
                out.push(value);
            }
        }
        out
    }
}

/// Sliding-window aggregation over recent query completions: rolling
/// qps and windowed latency percentiles, computed from a bounded
/// [`Ring`] of `(completion timestamp ns, response ms)` pairs.
pub struct WindowRing {
    ring: Ring<(u64, f64)>,
    window_ns: u64,
}

/// What the sliding window knows right now.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Completions inside the window (bounded by the ring capacity).
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

impl WindowRing {
    /// A window of `window_ns` over at most `capacity` completions.
    pub fn new(capacity: usize, window_ns: u64) -> Self {
        Self {
            ring: Ring::new(capacity, (0u64, 0f64)),
            window_ns,
        }
    }

    /// Records one completion at `ts_ns` with response `value_ms`.
    pub fn record(&self, ts_ns: u64, value_ms: f64) {
        self.ring.push((ts_ns, value_ms));
    }

    /// The window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Mean of the values within the window ending at `now_ns`, or
    /// `None` when the window is empty. Used for the model-residual
    /// gauges, where a mean is the drift signal of interest.
    pub fn mean(&self, now_ns: u64) -> Option<f64> {
        let floor = now_ns.saturating_sub(self.window_ns);
        let mut sum = 0.0;
        let mut n = 0u64;
        for (ts, v) in self.ring.snapshot() {
            if ts >= floor && ts <= now_ns {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Aggregates the completions within the window ending at `now_ns`.
    ///
    /// qps uses the *effective* window: when the run is younger than
    /// the window (`now_ns` counts from registry creation) the rate
    /// divides by the elapsed run time, and when the ring wrapped
    /// inside the window it divides by the span back to the oldest
    /// resident completion — never by uncovered time.
    pub fn stats(&self, now_ns: u64) -> WindowStats {
        let floor = now_ns.saturating_sub(self.window_ns);
        let mut in_window: Vec<(u64, f64)> = self
            .ring
            .snapshot()
            .into_iter()
            .filter(|&(ts, _)| ts >= floor && ts <= now_ns)
            .collect();
        if in_window.is_empty() {
            return WindowStats::default();
        }
        let oldest = in_window.iter().map(|&(ts, _)| ts).min().unwrap_or(floor);
        let wrapped = self.ring.pushed() > self.ring.capacity() as u64;
        let span_ns = if wrapped {
            now_ns.saturating_sub(oldest).max(1)
        } else {
            self.window_ns.min(now_ns).max(1)
        };
        let samples = in_window.len() as u64;
        let mut values: Vec<f64> = in_window.drain(..).map(|(_, v)| v).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite response times"));
        WindowStats {
            samples,
            qps: samples as f64 / (span_ns as f64 / 1e9),
            p50_ms: percentile(&values, 0.50),
            p95_ms: percentile(&values, 0.95),
            p99_ms: percentile(&values, 0.99),
        }
    }
}

/// A bounded ring of recent obs [`Event`]s, always recording while the
/// server runs; `drain` snapshots it into timestamp order for Perfetto
/// export (`DUMP-TRACE`).
pub struct FlightRecorder {
    ring: Ring<(u64, Event)>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity, (0, Event::QueryArrive { query: 0 })),
        }
    }

    /// Records one event stamped `ts_ns`.
    #[inline]
    pub fn record(&self, ts_ns: u64, event: Event) {
        self.ring.push((ts_ns, event));
    }

    /// Total events ever recorded (retention is bounded by capacity).
    pub fn recorded(&self) -> u64 {
        self.ring.pushed()
    }

    /// The resident events in timestamp order.
    pub fn drain(&self) -> Vec<(u64, Event)> {
        let mut events = self.ring.snapshot();
        events.sort_by_key(|&(ts, _)| ts);
        events
    }
}

/// Everything the engine knows about one finished query, handed to
/// [`LiveTelemetry::observe_query`] at completion.
#[derive(Debug, Clone, Copy)]
pub struct QueryObservation<'a> {
    /// Global serving id of the query.
    pub query: u32,
    /// Algorithm that ran it.
    pub algo: &'a str,
    /// Requested neighbour count.
    pub k: usize,
    /// Answers produced (0 when failed).
    pub answers: usize,
    /// Index nodes fetched.
    pub nodes: u64,
    /// Fetch batches issued.
    pub batches: u32,
    /// Pickup-to-completion response time, ns.
    pub response_ns: u64,
    /// Total time requests waited in disk queues, ns.
    pub disk_queue_ns: u64,
    /// Total disk service (read) time, ns.
    pub disk_service_ns: u64,
    /// Total CPU execution time, ns.
    pub cpu_ns: u64,
    /// Whether the query aborted with a typed error.
    pub failed: bool,
}

/// The append-only JSONL log of over-threshold queries. One line per
/// slow query: serving id, algorithm, k, answer count, and the full
/// per-component response-time breakdown. The file handle is behind a
/// mutex — the *only* lock in the live plane — paid exclusively by
/// queries that already exceeded the threshold.
pub struct SlowQueryLog {
    file: Mutex<std::fs::File>,
}

impl SlowQueryLog {
    /// Creates (truncates) the log at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            file: Mutex::new(std::fs::File::create(path)?),
        })
    }

    /// Appends one observation's line, with the query's rendered
    /// [`QueryExplain`](crate::explain::QueryExplain) JSON embedded under
    /// an `explain` key when available.
    fn append(&self, ts_ns: u64, o: &QueryObservation<'_>, explain: Option<&str>) {
        let mut w = ObjWriter::new();
        w.field_u64("ts_ns", ts_ns);
        w.field_u64("query", o.query as u64);
        w.field_str("algo", o.algo);
        w.field_u64("k", o.k as u64);
        w.field_u64("answers", o.answers as u64);
        w.field_u64("nodes", o.nodes);
        w.field_u64("batches", o.batches as u64);
        w.field_f64("response_ms", o.response_ns as f64 / 1e6);
        w.field_f64("disk_queue_ms", o.disk_queue_ns as f64 / 1e6);
        w.field_f64("disk_service_ms", o.disk_service_ns as f64 / 1e6);
        w.field_f64("cpu_ms", o.cpu_ns as f64 / 1e6);
        w.field_bool("failed", o.failed);
        if let Some(explain) = explain {
            w.field_raw("explain", explain);
        }
        let line = w.finish();
        if let Ok(mut file) = self.file.lock() {
            // Telemetry must never fail the query: drop the line on I/O
            // errors rather than surface them into the serving path.
            let _ = writeln!(file, "{line}");
        }
    }
}

/// Per-disk live metrics, fed by the I/O backend's worker threads.
pub struct LiveDisk {
    /// Reads served.
    pub requests: LiveCounter,
    /// Cumulative service (busy) time, ns — utilization numerator.
    pub busy_ns: LiveCounter,
    /// Cumulative time requests waited in this disk's queue, ns.
    pub queue_ns: LiveCounter,
    /// Queue depth seen by the most recent submission (gauge).
    pub depth: AtomicU64,
    /// Distribution of per-read time-in-queue, ms.
    pub queue_time_ms: LiveHistogram,
    /// Distribution of per-read service time, ms.
    pub service_ms: LiveHistogram,
    /// Distribution of queue depth at submission.
    pub queue_depth: LiveHistogram,
}

impl LiveDisk {
    fn new() -> Self {
        Self {
            requests: LiveCounter::new(),
            busy_ns: LiveCounter::new(),
            queue_ns: LiveCounter::new(),
            depth: AtomicU64::new(0),
            queue_time_ms: LiveHistogram::new(TIME_MS_BOUNDS),
            service_ms: LiveHistogram::new(TIME_MS_BOUNDS),
            queue_depth: LiveHistogram::new(DEPTH_BOUNDS),
        }
    }

    /// Fraction of `elapsed_ns` this disk spent servicing reads.
    pub fn utilization(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            0.0
        } else {
            self.busy_ns.get() as f64 / elapsed_ns as f64
        }
    }
}

/// The live registry for the serving stack: query counters and latency
/// distributions, per-query component breakdowns, per-disk service
/// metrics, a sliding window, a flight recorder and the slow-query log,
/// all shared (`&self` everywhere) and lock-free on the query path.
pub struct LiveTelemetry {
    started: Instant,
    next_query: AtomicU64,
    /// Queries picked up by a worker.
    pub queries_started: LiveCounter,
    /// Queries that completed with an answer.
    pub queries_completed: LiveCounter,
    /// Queries that aborted with a typed error.
    pub queries_failed: LiveCounter,
    /// Completed queries that exceeded the slow-query threshold.
    pub slow_queries: LiveCounter,
    /// Reads served by a shadow replica (degraded mode).
    pub degraded_reads: LiveCounter,
    /// Response-time distribution, ms.
    pub response_ms: LiveHistogram,
    /// Per-query total time-in-disk-queue distribution, ms.
    pub disk_queue_ms: LiveHistogram,
    /// Per-query total disk service time distribution, ms.
    pub disk_service_ms: LiveHistogram,
    /// Per-query total CPU time distribution, ms.
    pub cpu_ms: LiveHistogram,
    /// Fetch-batch size distribution.
    pub batch_size: LiveHistogram,
    disks: Box<[LiveDisk]>,
    window: WindowRing,
    residual_accesses: WindowRing,
    residual_latency: WindowRing,
    flight: Option<FlightRecorder>,
    slow_log: Option<SlowQueryLog>,
    slow_threshold_ns: u64,
}

/// Default sliding-window length: one minute.
pub const DEFAULT_WINDOW_NS: u64 = 60_000_000_000;

/// Default window ring capacity (completions retained for windowed
/// percentiles).
pub const DEFAULT_WINDOW_CAP: usize = 8192;

impl LiveTelemetry {
    /// A registry for an array of `num_disks` disks, with a one-minute
    /// sliding window and no flight recorder or slow-query log.
    pub fn new(num_disks: u32) -> Self {
        Self {
            started: Instant::now(),
            next_query: AtomicU64::new(0),
            queries_started: LiveCounter::new(),
            queries_completed: LiveCounter::new(),
            queries_failed: LiveCounter::new(),
            slow_queries: LiveCounter::new(),
            degraded_reads: LiveCounter::new(),
            response_ms: LiveHistogram::new(TIME_MS_BOUNDS),
            disk_queue_ms: LiveHistogram::new(TIME_MS_BOUNDS),
            disk_service_ms: LiveHistogram::new(TIME_MS_BOUNDS),
            cpu_ms: LiveHistogram::new(TIME_MS_BOUNDS),
            batch_size: LiveHistogram::new(DEPTH_BOUNDS),
            disks: (0..num_disks).map(|_| LiveDisk::new()).collect(),
            window: WindowRing::new(DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_NS),
            residual_accesses: WindowRing::new(DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_NS),
            residual_latency: WindowRing::new(DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_NS),
            flight: None,
            slow_log: None,
            slow_threshold_ns: u64::MAX,
        }
    }

    /// Enables the flight recorder with `capacity` retained events
    /// (0 disables it again).
    pub fn with_flight_recorder(mut self, capacity: usize) -> Self {
        self.flight = (capacity > 0).then(|| FlightRecorder::new(capacity));
        self
    }

    /// Enables the slow-query log: completions at or over
    /// `threshold_ms` append a JSONL breakdown line to `path`.
    pub fn with_slow_query_log(mut self, path: &Path, threshold_ms: f64) -> std::io::Result<Self> {
        self.slow_log = Some(SlowQueryLog::create(path)?);
        self.slow_threshold_ns = (threshold_ms.max(0.0) * 1e6) as u64;
        Ok(self)
    }

    /// Disks in the observed array.
    pub fn num_disks(&self) -> u32 {
        self.disks.len() as u32
    }

    /// Per-disk live metrics.
    pub fn disks(&self) -> &[LiveDisk] {
        &self.disks
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

    /// The slow-query log, if enabled.
    pub fn slow_log(&self) -> Option<&SlowQueryLog> {
        self.slow_log.as_ref()
    }

    /// Assigns the next global serving query id and counts the pickup.
    pub fn begin_query(&self) -> u32 {
        self.queries_started.inc();
        self.next_query.fetch_add(1, Ordering::Relaxed) as u32
    }

    /// Queries currently in flight (started minus finished).
    pub fn inflight(&self) -> u64 {
        self.queries_started
            .get()
            .saturating_sub(self.queries_completed.get() + self.queries_failed.get())
    }

    /// Records one event into the flight recorder (no-op when the
    /// recorder is disabled).
    #[inline]
    pub fn record_event(&self, ts_ns: u64, event: Event) {
        if let Some(flight) = &self.flight {
            flight.record(ts_ns, event);
        }
    }

    /// Feeds one finished query into every live aggregate: counters,
    /// latency/component histograms, the sliding window, and — when the
    /// query ran over the threshold — the slow-query log.
    pub fn observe_query(&self, o: &QueryObservation<'_>) {
        self.observe_query_explained(o, None);
    }

    /// [`Self::observe_query`] with the query's rendered
    /// [`QueryExplain`](crate::explain::QueryExplain) JSON attached:
    /// when the query lands in the slow-query log, the record is
    /// embedded in its line under an `explain` key.
    pub fn observe_query_explained(&self, o: &QueryObservation<'_>, explain_json: Option<&str>) {
        if o.failed {
            self.queries_failed.inc();
            return;
        }
        self.queries_completed.inc();
        let response_ms = o.response_ns as f64 / 1e6;
        self.response_ms.observe(response_ms);
        self.disk_queue_ms.observe(o.disk_queue_ns as f64 / 1e6);
        self.disk_service_ms.observe(o.disk_service_ns as f64 / 1e6);
        self.cpu_ms.observe(o.cpu_ns as f64 / 1e6);
        let now = self.now_ns();
        self.window.record(now, response_ms);
        if o.response_ns >= self.slow_threshold_ns {
            self.slow_queries.inc();
            if let Some(log) = &self.slow_log {
                log.append(now, o, explain_json);
            }
        }
    }

    /// Feeds one predicted-vs-observed residual pair into the drift
    /// windows behind the `sqda_model_residual_*` gauges. Non-finite
    /// components (no prediction, or a saturated latency estimate) are
    /// skipped.
    pub fn observe_residual(&self, accesses: f64, latency_ms: f64) {
        let now = self.now_ns();
        if accesses.is_finite() {
            self.residual_accesses.record(now, accesses);
        }
        if latency_ms.is_finite() {
            self.residual_latency.record(now, latency_ms);
        }
    }

    /// Windowed mean observed-minus-predicted node accesses (0 when no
    /// residuals were observed in the window).
    pub fn residual_accesses_mean(&self) -> f64 {
        self.residual_accesses.mean(self.now_ns()).unwrap_or(0.0)
    }

    /// Windowed mean observed-minus-predicted response time, ms (0
    /// when no residuals were observed in the window).
    pub fn residual_latency_mean_ms(&self) -> f64 {
        self.residual_latency.mean(self.now_ns()).unwrap_or(0.0)
    }

    /// Feeds one disk read (called from the I/O backend's worker
    /// threads through the `ReadObserver` seam).
    pub fn observe_disk_read(&self, disk: u32, queue_ns: u64, service_ns: u64, queue_depth: u32) {
        let Some(d) = self.disks.get(disk as usize) else {
            return;
        };
        d.requests.inc();
        d.busy_ns.add(service_ns);
        d.queue_ns.add(queue_ns);
        d.depth.store(queue_depth as u64, Ordering::Relaxed);
        d.queue_time_ms.observe(queue_ns as f64 / 1e6);
        d.service_ms.observe(service_ns as f64 / 1e6);
        d.queue_depth.observe(queue_depth as f64);
    }

    /// Current sliding-window aggregates.
    pub fn window_stats(&self) -> WindowStats {
        self.window.stats(self.now_ns())
    }

    /// Snapshots the live registries into the post-hoc
    /// [`MetricsSnapshot`] vocabulary (cache behaviour is the store's;
    /// fold an `IoStats` in afterwards like any other snapshot).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.queries_arrived = self.queries_started.snapshot();
        snap.queries_completed = self.queries_completed.snapshot();
        snap.queries_aborted = self.queries_failed.snapshot();
        snap.degraded_reads = self.degraded_reads.snapshot();
        snap.response_ms = self.response_ms.snapshot();
        snap.batch_size = self.batch_size.snapshot();
        for (i, d) in self.disks.iter().enumerate() {
            if d.requests.get() == 0 {
                continue;
            }
            let mut dm = DiskMetrics::new();
            dm.requests = d.requests.snapshot();
            dm.busy_ns = d.busy_ns.snapshot();
            dm.queue_time_ms = d.queue_time_ms.snapshot();
            dm.queue_depth = d.queue_depth.snapshot();
            snap.disks.insert(i as u16, dm);
        }
        snap
    }

    /// Renders the whole registry as Prometheus text exposition, with
    /// the store's [`IoStats`](sqda_storage::IoStats) and the threaded
    /// backend's
    /// [`inline_reads`](sqda_storage::ThreadedFileBackend::inline_reads)
    /// when given; see [`prometheus`](crate::prometheus) for the format
    /// contract.
    pub fn prometheus(
        &self,
        io: Option<&sqda_storage::IoStats>,
        inline_reads: Option<u64>,
    ) -> String {
        crate::prometheus::render(self, io, inline_reads)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let c = LiveCounter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.snapshot(), Counter(5));
    }

    #[test]
    fn live_histogram_matches_sequential() {
        let live = LiveHistogram::new(TIME_MS_BOUNDS);
        let mut plain = Histogram::new(TIME_MS_BOUNDS);
        for v in [0.005, 0.5, 7.0, 9999.0, 42.0] {
            live.observe(v);
            plain.observe(v);
        }
        assert_eq!(live.snapshot(), plain);
        assert_eq!(live.count(), 5);
    }

    #[test]
    fn ring_keeps_latest_and_survives_wrap() {
        let ring = Ring::new(4, 0u64);
        for i in 1..=10u64 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot(), vec![7, 8, 9, 10]);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.capacity(), 4);
    }

    #[test]
    fn ring_empty_and_partial() {
        let ring = Ring::new(8, 0u64);
        assert!(ring.snapshot().is_empty());
        ring.push(3);
        ring.push(4);
        assert_eq!(ring.snapshot(), vec![3, 4]);
    }

    #[test]
    fn window_stats_rate_and_percentiles() {
        let w = WindowRing::new(64, 10_000_000_000); // 10 s window
                                                     // 20 completions, one per 100 ms, responses 1..=20 ms.
        for i in 0..20u64 {
            w.record(i * 100_000_000, (i + 1) as f64);
        }
        let s = w.stats(1_900_000_000);
        assert_eq!(s.samples, 20);
        // Run (1.9 s) younger than the window: qps over the covered span.
        assert!((s.qps - 20.0 / 1.9).abs() < 1e-6, "qps = {}", s.qps);
        assert!((s.p50_ms - 10.5).abs() < 1e-9);
        assert!(s.p95_ms > s.p50_ms && s.p99_ms >= s.p95_ms);
        // Far in the future: everything aged out.
        assert_eq!(w.stats(100_000_000_000).samples, 0);
    }

    #[test]
    fn flight_recorder_drains_in_timestamp_order() {
        let f = FlightRecorder::new(8);
        f.record(5, Event::QueryArrive { query: 1 });
        f.record(2, Event::QueryArrive { query: 0 });
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
        assert_eq!(t.inflight(), 2);
        t.observe_disk_read(0, 1_000_000, 2_000_000, 3);
        t.observe_disk_read(1, 0, 500_000, 0);
        t.observe_query(&QueryObservation {
            query: q0,
            algo: "CRSS",
            k: 5,
            answers: 5,
            nodes: 7,
            batches: 2,
            response_ns: 4_000_000,
            disk_queue_ns: 1_000_000,
            disk_service_ns: 2_500_000,
            cpu_ns: 300_000,
            failed: false,
        });
        t.observe_query(&QueryObservation {
            query: q1,
            algo: "CRSS",
            k: 5,
            answers: 0,
            nodes: 0,
            batches: 0,
            response_ns: 0,
            disk_queue_ns: 0,
            disk_service_ns: 0,
            cpu_ns: 0,
            failed: true,
        });
        assert_eq!(t.inflight(), 0);
        assert_eq!(t.queries_completed.get(), 1);
        assert_eq!(t.queries_failed.get(), 1);
        let snap = t.snapshot();
        assert_eq!(snap.queries_arrived.0, 2);
        assert_eq!(snap.queries_completed.0, 1);
        assert_eq!(snap.queries_aborted.0, 1);
        assert_eq!(snap.response_ms.count(), 1);
        assert_eq!(snap.disks.len(), 2);
        assert_eq!(snap.disks[&0].requests.0, 1);
        assert_eq!(snap.disks[&0].busy_ns.0, 2_000_000);
        let ws = t.window_stats();
        assert_eq!(ws.samples, 1);
        assert!((ws.p50_ms - 4.0).abs() < 1e-9);
        assert_eq!(t.disks()[0].depth.load(Ordering::Relaxed), 3);
        assert!(t.disks()[0].utilization(4_000_000) > 0.0);
    }

    #[test]
    fn slow_query_log_lines_and_threshold() {
        let dir = std::env::temp_dir().join(format!("sqda-slowlog-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("slow.jsonl");
        let t = LiveTelemetry::new(1)
            .with_slow_query_log(&path, 2.0)
            .unwrap();
        let fast = QueryObservation {
            query: 0,
            algo: "BBSS",
            k: 3,
            answers: 3,
            nodes: 4,
            batches: 1,
            response_ns: 1_000_000, // 1 ms < 2 ms threshold
            disk_queue_ns: 0,
            disk_service_ns: 800_000,
            cpu_ns: 100_000,
            failed: false,
        };
        let slow = QueryObservation {
            query: 1,
            response_ns: 5_000_000,
            ..fast
        };
        t.begin_query();
        t.begin_query();
        t.observe_query(&fast);
        t.observe_query(&slow);
        assert_eq!(t.slow_queries.get(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let doc = crate::json::parse(lines[0]).unwrap();
        assert_eq!(doc.get("query").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("algo").unwrap().as_str(), Some("BBSS"));
        assert_eq!(doc.get("answers").unwrap().as_u64(), Some(3));
        assert!(doc.get("response_ms").unwrap().as_f64().unwrap() >= 2.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn residual_windows_track_drift_means() {
        let t = LiveTelemetry::new(1);
        assert_eq!(t.residual_accesses_mean(), 0.0);
        assert_eq!(t.residual_latency_mean_ms(), 0.0);
        t.observe_residual(2.0, 0.5);
        t.observe_residual(4.0, 1.5);
        // Non-finite components are dropped, not recorded as zeros.
        t.observe_residual(f64::NAN, f64::INFINITY);
        assert!((t.residual_accesses_mean() - 3.0).abs() < 1e-9);
        assert!((t.residual_latency_mean_ms() - 1.0).abs() < 1e-9);
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
        t.observe_query_explained(
            &QueryObservation {
                query: 0,
                algo: "CRSS",
                k: 2,
                answers: 2,
                nodes: 3,
                batches: 1,
                response_ns: 2_000_000,
                disk_queue_ns: 0,
                disk_service_ns: 1_000_000,
                cpu_ns: 100_000,
                failed: false,
            },
            Some(r#"{"observed_accesses":3}"#),
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = crate::json::parse(text.lines().next().unwrap()).unwrap();
        let explain = doc.get("explain").unwrap();
        assert_eq!(explain.get("observed_accesses").unwrap().as_u64(), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_histogram_observers_merge_exactly() {
        let live = std::sync::Arc::new(LiveHistogram::new(TIME_MS_BOUNDS));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let live = std::sync::Arc::clone(&live);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        live.observe((t * 1000 + i) as f64 / 10.0);
                    }
                });
            }
        });
        let mut plain = Histogram::new(TIME_MS_BOUNDS);
        for v in 0..4000u64 {
            plain.observe(v as f64 / 10.0);
        }
        let snap = live.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.buckets(), plain.buckets());
        assert_eq!(snap.max(), plain.max());
    }
}

//! The structured event vocabulary of the simulated executor.
//!
//! Every event is a plain-scalar record (`Copy`, no heap payload), so
//! emitting one costs a single enum move — the no-op recorder path stays
//! allocation-free. Timestamps travel alongside the event as integer
//! nanoseconds of simulated time (see `Recorder::record`).
//!
//! Component service events carry the *full service-time breakdown* the
//! paper's Section 4.1 model produces — the queueing delay in front of the
//! server plus each physical phase — rather than separate enqueue /
//! phase-done events: the kernel computes completion times at submission,
//! so the whole timeline of a request is known the moment it is issued.

/// Identifies one query of a workload (its index in arrival order).
pub type QueryId = u32;

/// One structured observation from the simulated system.
///
/// The JSONL schema (see `jsonl`) serializes each variant as an object
/// with a `"type"` discriminator in snake_case and the fields below;
/// durations are integer nanoseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A query entered the system (timestamp = arrival).
    QueryArrive {
        /// Workload index of the query.
        query: QueryId,
    },
    /// A query produced its final answer (timestamp = completion).
    /// Carries the whole response-time breakdown accumulated over the
    /// query's requests; component times can overlap wall-clock-wise
    /// (parallel disk fetches), so they sum to ≥ the critical path.
    QueryComplete {
        /// Workload index of the query.
        query: QueryId,
        /// Arrival-to-completion response time.
        response_ns: u64,
        /// Index nodes fetched.
        nodes: u64,
        /// Fetch batches issued.
        batches: u32,
        /// Total time requests waited in disk queues.
        disk_queue_ns: u64,
        /// Total seek time.
        seek_ns: u64,
        /// Total rotational latency.
        rotation_ns: u64,
        /// Total platter transfer + controller overhead.
        transfer_ns: u64,
        /// Total time pages waited for the shared bus.
        bus_queue_ns: u64,
        /// Total bus transfer time.
        bus_ns: u64,
        /// Total time batches waited for a CPU.
        cpu_queue_ns: u64,
        /// Total CPU execution time.
        cpu_ns: u64,
    },
    /// A fetch batch was handed to the disk array (timestamp = issue).
    BatchIssued {
        /// Issuing query.
        query: QueryId,
        /// Shallowest tree level in the batch (root = 0). Equal to
        /// `level_max` for the level-uniform breadth-first algorithms;
        /// CRSS batches that mix candidate-stack pops with fresh
        /// expansions span `level..=level_max`.
        level: u16,
        /// Deepest tree level in the batch.
        level_max: u16,
        /// Pages in the batch.
        size: u32,
    },
    /// One page request's full service at a disk (timestamp =
    /// submission; service starts `queue_ns` later).
    DiskService {
        /// Requesting query.
        query: QueryId,
        /// Disk index within the array.
        disk: u16,
        /// Target cylinder.
        cylinder: u32,
        /// Tree level of the requested page (root = 0).
        level: u16,
        /// FCFS queueing delay before service started.
        queue_ns: u64,
        /// Head-movement time.
        seek_ns: u64,
        /// Rotational latency.
        rotation_ns: u64,
        /// Platter transfer + controller overhead.
        transfer_ns: u64,
        /// Requests already waiting or in service at submission
        /// (this request excluded).
        queue_depth: u32,
    },
    /// One page crossing the shared I/O bus (timestamp = submission).
    BusTransfer {
        /// Requesting query.
        query: QueryId,
        /// Queueing delay before the transfer started.
        queue_ns: u64,
        /// Transfer duration.
        transfer_ns: u64,
    },
    /// One batch-processing step on a CPU (timestamp = submission).
    CpuSlice {
        /// Requesting query.
        query: QueryId,
        /// CPU index (multiprocessor front-end).
        cpu: u16,
        /// Queueing delay before execution started.
        queue_ns: u64,
        /// Execution duration.
        exec_ns: u64,
        /// Instructions charged under the paper's cost model (0 for the
        /// fixed-duration startup step).
        instructions: u64,
    },
    /// CRSS-specific state after processing a batch (timestamp = batch
    /// completion): the threshold-distance trajectory and candidate-stack
    /// occupancy of Section 3.3.
    CrssState {
        /// Query whose CRSS instance reported.
        query: QueryId,
        /// Current squared threshold distance `D_th²` (infinite until
        /// Lemma 1 or k objects bound it; serialized as `null` when not
        /// finite).
        d_th_sq: f64,
        /// Runs on the candidate stack.
        stack_runs: u32,
        /// Saved candidates across all runs.
        stack_candidates: u32,
    },
    /// A disk stopped serving (fail-stop; timestamp = failure instant).
    /// Emitted from the fault plan when a recorded run starts, so sinks
    /// see the full failure schedule even if no query ever probes the
    /// disk.
    DiskFailed {
        /// Index of the failed disk.
        disk: u16,
    },
    /// A failed disk came back (timestamp = recovery instant).
    DiskRecovered {
        /// Index of the recovered disk.
        disk: u16,
    },
    /// A degraded-performance window opened on a disk (timestamp =
    /// window start): a slow-disk latency multiplier, a hot-spot
    /// contention delay, or both.
    DiskDegraded {
        /// Index of the degraded disk.
        disk: u16,
        /// Window end, absolute simulated ns.
        until_ns: u64,
        /// Service-time multiplier in effect over the window.
        multiplier: f64,
        /// Additional per-request service time over the window, ns.
        extra_ns: u64,
    },
    /// A read was redirected from a failed primary disk to its shadow
    /// replica (timestamp = submission).
    DegradedRead {
        /// Requesting query.
        query: QueryId,
        /// The failed primary the page lives on.
        disk: u16,
        /// The mirror partner that served the read instead.
        replica: u16,
    },
    /// No live replica held a requested page; the executor scheduled a
    /// bounded re-probe (timestamp = the failed probe).
    ReadRetry {
        /// Requesting query.
        query: QueryId,
        /// The unavailable primary disk.
        disk: u16,
        /// Probe number (1 = first attempt).
        attempt: u32,
    },
    /// A query gave up (timestamp = abort): under the simulator a page
    /// stayed unavailable through the whole retry budget, under the
    /// real-clock engine a read or decode failed. The query leaves the
    /// system with a typed error instead of an answer; every
    /// `QueryArrive` is closed by this or by a `QueryComplete`.
    QueryAbort {
        /// Aborting query.
        query: QueryId,
        /// The unavailable primary disk (real-clock engine: the disk of
        /// the last read the query saw finish — the failing one when a
        /// read is what ended it).
        disk: u16,
        /// Probes spent before giving up.
        attempts: u32,
    },
}

impl Event {
    /// The JSONL `"type"` discriminator for this event.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::QueryArrive { .. } => "query_arrive",
            Event::QueryComplete { .. } => "query_complete",
            Event::BatchIssued { .. } => "batch_issued",
            Event::DiskService { .. } => "disk_service",
            Event::BusTransfer { .. } => "bus_transfer",
            Event::CpuSlice { .. } => "cpu_slice",
            Event::CrssState { .. } => "crss_state",
            Event::DiskFailed { .. } => "disk_failed",
            Event::DiskRecovered { .. } => "disk_recovered",
            Event::DiskDegraded { .. } => "disk_degraded",
            Event::DegradedRead { .. } => "degraded_read",
            Event::ReadRetry { .. } => "read_retry",
            Event::QueryAbort { .. } => "query_abort",
        }
    }

    /// The query the event belongs to, or `None` for disk-level fault
    /// events that no single query owns.
    pub fn query(&self) -> Option<QueryId> {
        match *self {
            Event::QueryArrive { query }
            | Event::QueryComplete { query, .. }
            | Event::BatchIssued { query, .. }
            | Event::DiskService { query, .. }
            | Event::BusTransfer { query, .. }
            | Event::CpuSlice { query, .. }
            | Event::CrssState { query, .. }
            | Event::DegradedRead { query, .. }
            | Event::ReadRetry { query, .. }
            | Event::QueryAbort { query, .. } => Some(query),
            Event::DiskFailed { .. } | Event::DiskRecovered { .. } | Event::DiskDegraded { .. } => {
                None
            }
        }
    }
}

/// The consumer of executor events.
///
/// The contract that keeps instrumentation honest:
///
/// * recording must never change simulated behaviour — implementations
///   only observe;
/// * when [`Recorder::enabled`] is `false` the executor skips all
///   bookkeeping that exists only to build events, so the uninstrumented
///   path performs no per-event heap allocation and no extra arithmetic
///   beyond a branch.
pub trait Recorder {
    /// Consumes one event stamped with simulated time `ts_ns`.
    fn record(&mut self, ts_ns: u64, event: Event);

    /// Whether events are wanted at all. Callers may (and the executor
    /// does) skip event construction entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// The statically no-op recorder: `enabled()` is `false`, `record` is an
/// empty inline body, so the uninstrumented executor path compiles down
/// to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn record(&mut self, _ts_ns: u64, _event: Event) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Buffers the event stream in memory for post-run export (Perfetto,
/// metrics, profiles).
#[derive(Debug, Clone, Default)]
pub struct CollectingRecorder {
    events: Vec<(u64, Event)>,
}

impl CollectingRecorder {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded `(timestamp, event)` stream, in emission order.
    pub fn events(&self) -> &[(u64, Event)] {
        &self.events
    }

    /// Consumes the collector, returning the stream.
    pub fn into_events(self) -> Vec<(u64, Event)> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Recorder for CollectingRecorder {
    fn record(&mut self, ts_ns: u64, event: Event) {
        self.events.push((ts_ns, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(1, Event::QueryArrive { query: 0 });
    }

    #[test]
    fn collector_buffers_in_order() {
        let mut r = CollectingRecorder::new();
        assert!(r.enabled());
        r.record(5, Event::QueryArrive { query: 1 });
        r.record(
            9,
            Event::BusTransfer {
                query: 1,
                queue_ns: 0,
                transfer_ns: 400_000,
            },
        );
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.events()[0].0, 5);
        assert_eq!(r.events()[1].1.kind(), "bus_transfer");
        assert_eq!(r.events()[1].1.query(), Some(1));
        let evs = r.into_events();
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn event_kinds_are_distinct() {
        let evs = [
            Event::QueryArrive { query: 0 },
            Event::BatchIssued {
                query: 0,
                level: 0,
                level_max: 0,
                size: 1,
            },
            Event::CrssState {
                query: 0,
                d_th_sq: f64::INFINITY,
                stack_runs: 0,
                stack_candidates: 0,
            },
            Event::DiskFailed { disk: 1 },
            Event::DiskRecovered { disk: 1 },
            Event::DiskDegraded {
                disk: 1,
                until_ns: 5,
                multiplier: 2.0,
                extra_ns: 0,
            },
            Event::DegradedRead {
                query: 0,
                disk: 1,
                replica: 3,
            },
            Event::ReadRetry {
                query: 0,
                disk: 1,
                attempt: 1,
            },
            Event::QueryAbort {
                query: 0,
                disk: 1,
                attempts: 3,
            },
        ];
        let kinds: std::collections::HashSet<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), evs.len());
    }

    #[test]
    fn disk_level_events_have_no_query() {
        assert_eq!(Event::DiskFailed { disk: 0 }.query(), None);
        assert_eq!(Event::DiskRecovered { disk: 0 }.query(), None);
        assert_eq!(
            Event::DiskDegraded {
                disk: 0,
                until_ns: 1,
                multiplier: 1.5,
                extra_ns: 0,
            }
            .query(),
            None
        );
        assert_eq!(
            Event::QueryAbort {
                query: 9,
                disk: 0,
                attempts: 2,
            }
            .query(),
            Some(9)
        );
    }
}

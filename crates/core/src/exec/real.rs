//! The real-clock executor: the same session/batch machinery as the
//! simulator, driven by the machine's clock and a batched I/O backend
//! instead of the event queue and the disk timing model.
//!
//! One k-NN activation round becomes one [`IoBackend::submit_batch`]
//! call — over a [`ThreadedFileBackend`](sqda_storage::ThreadedFileBackend)
//! the batch's pages are read concurrently across the per-disk files,
//! which is the paper's intra-query parallelism on real hardware. The
//! engine runs a closed-loop workload: `concurrency` workers each drive
//! one query session at a time to completion, so "arrival" is the
//! moment a worker picks the query up (the Poisson schedule of a
//! [`Workload`] only has meaning under the simulator). A lone worker is
//! the calling thread itself; only two or more are spawned.
//!
//! Observability uses the same vocabulary as the simulated engine —
//! `query_arrive`, `batch_issued`, `disk_service`, `cpu_slice`,
//! `query_complete` — stamped through [`WallClock`] instead of the
//! virtual clock. Wall-clock `disk_service` carries measured queue and
//! transfer times (seek/rotation are not separable on real files), and
//! there are no `bus_transfer` events: the memory bus is not observable
//! from user space.

use super::clock::{EngineClock, WallClock};
use super::session::{settle_outstanding, Session, SessionObs};
use crate::access::{AccessMethod, IndexNode};
use crate::algo::{AlgorithmKind, Step};
use crate::error::QueryError;
use crate::workload::Workload;
use sqda_obs::{Event as ObsEvent, LiveTelemetry, NullRecorder, QueryObservation, Recorder};
use sqda_rstar::Neighbor;
use sqda_storage::{IoBackend, PageId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Aggregated results of one real-clock run.
#[derive(Debug, Clone)]
pub struct RealTimeReport {
    /// Which algorithm ran.
    pub algorithm: &'static str,
    /// Which I/O backend served the reads.
    pub backend: &'static str,
    /// Concurrent worker sessions.
    pub concurrency: usize,
    /// Queries completed.
    pub completed: usize,
    /// Queries aborted with a typed error.
    pub failed: usize,
    /// Wall-clock duration of the whole run, in seconds.
    pub wall_s: f64,
    /// Completed queries per wall-clock second.
    pub qps: f64,
    /// Mean response time in seconds (pickup to completion).
    pub mean_response_s: f64,
    /// Median response time.
    pub p50_response_s: f64,
    /// 95th-percentile response time.
    pub p95_response_s: f64,
    /// 99th-percentile response time.
    pub p99_response_s: f64,
    /// Maximum response time observed.
    pub max_response_s: f64,
    /// Mean nodes fetched per completed query.
    pub mean_nodes_per_query: f64,
    /// Response time of every completed query, in workload index order.
    pub responses: Vec<f64>,
    /// The k-NN answers of every query, in workload index order
    /// (empty for aborted queries).
    pub answers: Vec<Vec<Neighbor>>,
    /// The typed error of every aborted query, keyed by workload index.
    pub failures: Vec<(u32, QueryError)>,
}

/// Linear-interpolated percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
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

/// Outcome of one driven session, before aggregation.
struct SessionOutcome {
    index: u32,
    result: Result<CompletedSession, QueryError>,
}

/// Per-query introspection accumulators behind [`RealTimeEngine::
/// explain_query`]: everything a [`sqda_obs::QueryExplain`] reports
/// beyond the [`SessionObs`] timing accumulators. Collected inline in
/// `drive_session` so an explained query runs the exact same code path
/// (and produces the exact same answers and I/O) as a bare one.
struct ExplainProbe {
    /// Node accesses per tree level, index 0 = root.
    level_accesses: Vec<u64>,
    /// Pages per fetch batch, in issue order.
    batch_sizes: Vec<u32>,
    /// Lemma-1 threshold (`d_th`) after each batch, when the algorithm
    /// exposes it.
    thresholds: Vec<f64>,
    /// Physical reads per disk for this query.
    reads_per_disk: Vec<u64>,
    /// Node lookups served by the decoded-node cache.
    cache_hits: u64,
    /// Node lookups that went to the I/O backend.
    cache_misses: u64,
}

impl ExplainProbe {
    fn new(num_disks: u32) -> Self {
        Self {
            level_accesses: Vec::new(),
            batch_sizes: Vec::new(),
            thresholds: Vec::new(),
            reads_per_disk: vec![0; num_disks as usize],
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

struct CompletedSession {
    response_ns: u64,
    nodes_visited: u64,
    answers: Vec<Neighbor>,
    /// Component accumulators, populated when recording or live
    /// telemetry asked for them (zeros otherwise).
    obs: SessionObs,
}

/// What one worker hands back: its sessions' outcomes and the events it
/// buffered for the recorder.
type WorkerOutput = (Vec<SessionOutcome>, Vec<(u64, ObsEvent)>);

/// The live-telemetry record of one query: its measured components when
/// it completed, a bare failure mark (`done` = `None`) when it aborted.
fn observation(
    query: u32,
    kind: AlgorithmKind,
    k: usize,
    done: Option<&CompletedSession>,
) -> QueryObservation<'static> {
    let obs = done.map(|d| d.obs).unwrap_or_default();
    QueryObservation {
        query,
        algo: kind.name(),
        k,
        answers: done.map_or(0, |d| d.answers.len()),
        nodes: done.map_or(0, |d| d.nodes_visited),
        batches: obs.batches,
        response_ns: done.map_or(0, |d| d.response_ns),
        disk_queue_ns: obs.disk_queue_ns,
        disk_service_ns: obs.seek_ns + obs.rotation_ns + obs.transfer_ns,
        cpu_ns: obs.cpu_ns,
        failed: done.is_none(),
    }
}

/// Rewrites the query id an event is tagged with: recorder streams use
/// workload indices (what the post-hoc tooling joins on), the shared
/// flight recorder uses the global serving ids [`LiveTelemetry`] hands
/// out, so one constructed event serves both.
fn retag(event: ObsEvent, query: u32) -> ObsEvent {
    let mut ev = event;
    match &mut ev {
        ObsEvent::QueryArrive { query: q }
        | ObsEvent::QueryComplete { query: q, .. }
        | ObsEvent::BatchIssued { query: q, .. }
        | ObsEvent::DiskService { query: q, .. }
        | ObsEvent::BusTransfer { query: q, .. }
        | ObsEvent::CpuSlice { query: q, .. }
        | ObsEvent::CrssState { query: q, .. }
        | ObsEvent::DegradedRead { query: q, .. }
        | ObsEvent::ReadRetry { query: q, .. }
        | ObsEvent::QueryAbort { query: q, .. } => *q = query,
        ObsEvent::DiskFailed { .. }
        | ObsEvent::DiskRecovered { .. }
        | ObsEvent::DiskDegraded { .. } => {}
    }
    ev
}

/// The wall-clock twin of [`super::Simulation`]: executes a workload
/// with the same batch state machines, real reads through an
/// [`IoBackend`], and the machine's clock.
pub struct RealTimeEngine<'t, A: AccessMethod + ?Sized> {
    am: &'t A,
    backend: Arc<dyn IoBackend>,
    live: Option<Arc<LiveTelemetry>>,
}

impl<'t, A: AccessMethod + ?Sized> RealTimeEngine<'t, A> {
    /// Creates an engine over an access method and an I/O backend.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Config`] if the backend's array geometry
    /// disagrees with the one the index is declustered over.
    pub fn new(am: &'t A, backend: Arc<dyn IoBackend>) -> Result<Self, QueryError> {
        if backend.num_disks() != am.num_disks() {
            return Err(QueryError::Config(format!(
                "backend disk count must match the store the tree lives on \
                 (backend has {}, array has {})",
                backend.num_disks(),
                am.num_disks()
            )));
        }
        Ok(Self {
            am,
            backend,
            live: None,
        })
    }

    /// Attaches a live telemetry registry: every run feeds query
    /// counters, component histograms, the sliding window, the flight
    /// recorder and the slow-query log — concurrently, while queries
    /// are still in flight. Answers and I/O stay byte-identical; the
    /// registry only observes.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Config`] if the registry's disk count
    /// disagrees with the backend's array.
    pub fn with_telemetry(mut self, live: Arc<LiveTelemetry>) -> Result<Self, QueryError> {
        if live.num_disks() != self.backend.num_disks() {
            return Err(QueryError::Config(format!(
                "telemetry disk count must match the I/O backend \
                 (telemetry has {}, backend has {})",
                live.num_disks(),
                self.backend.num_disks()
            )));
        }
        self.live = Some(live);
        Ok(self)
    }

    /// The attached live telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<LiveTelemetry>> {
        self.live.as_ref()
    }

    /// The access method the engine runs over.
    pub fn access_method(&self) -> &A {
        self.am
    }

    /// Runs `queries` as one shared-traversal k-NN batch (see
    /// [`crate::batch`]): the batch descends the tree once, decodes each
    /// wavefront page a single time, and serves every interested query
    /// from the shared block via the batch distance kernels. Answers are
    /// bit-identical to running FPSS per query through [`Self::run`].
    /// Each round probes the node cache first, then reads the misses
    /// through this engine's [`IoBackend`] as one submitted batch — over
    /// a threaded backend the whole wavefront reads concurrently across
    /// the per-disk files, the same intra-round parallelism the
    /// per-session scheduler gets. Returns the batch report and the
    /// wall-clock seconds the batch took.
    pub fn run_query_batch(
        &self,
        queries: &[sqda_geom::Point],
        k: usize,
    ) -> Result<(crate::batch::BatchKnnReport, f64), QueryError> {
        let started = Instant::now();
        let report = crate::batch::batch_knn_backend(self.am, self.backend.as_ref(), queries, k)?;
        Ok((report, started.elapsed().as_secs_f64()))
    }

    /// Runs `workload` under `kind` with `concurrency` worker sessions
    /// (at `concurrency` 1, on the calling thread).
    pub fn run(
        &self,
        kind: AlgorithmKind,
        workload: &Workload,
        concurrency: usize,
    ) -> Result<RealTimeReport, QueryError> {
        self.run_recorded(kind, workload, concurrency, &mut NullRecorder)
    }

    /// Like [`RealTimeEngine::run`], but narrates the run through
    /// `recorder`. Workers buffer events locally; the merged stream is
    /// delivered to the recorder in timestamp order after the run.
    pub fn run_recorded(
        &self,
        kind: AlgorithmKind,
        workload: &Workload,
        concurrency: usize,
        recorder: &mut dyn Recorder,
    ) -> Result<RealTimeReport, QueryError> {
        let concurrency = concurrency.max(1);
        let recording = recorder.enabled();
        let clock = WallClock::new();
        let started = Instant::now();
        let cursor = AtomicUsize::new(0);

        // One worker body for every concurrency; a lone worker runs it
        // on the caller's thread, so a served single query pays no
        // thread spawn and only its page reads cross to the backend.
        let worker = |index: usize| {
            self.run_worker(kind, workload, index as u16, &cursor, &clock, recording)
        };
        let per_worker: Vec<WorkerOutput> = if concurrency == 1 {
            vec![worker(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..concurrency)
                    .map(|w| scope.spawn(move || worker(w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("engine worker panicked"))
                    .collect()
            })
        };
        let wall_s = started.elapsed().as_secs_f64();
        let (worker_outcomes, worker_events): (Vec<_>, Vec<_>) = per_worker.into_iter().unzip();

        if recording {
            let mut merged: Vec<(u64, ObsEvent)> = worker_events.into_iter().flatten().collect();
            merged.sort_by_key(|(ts, _)| *ts);
            for (ts, event) in merged {
                recorder.record(ts, event);
            }
        }

        let mut outcomes: Vec<SessionOutcome> = worker_outcomes.into_iter().flatten().collect();
        outcomes.sort_by_key(|o| o.index);
        let mut responses = Vec::new();
        let mut answers = vec![Vec::new(); workload.queries.len()];
        let mut failures = Vec::new();
        let mut total_nodes = 0u64;
        for outcome in outcomes {
            match outcome.result {
                Ok(done) => {
                    responses.push(done.response_ns as f64 / 1e9);
                    total_nodes += done.nodes_visited;
                    answers[outcome.index as usize] = done.answers;
                }
                Err(e) => failures.push((outcome.index, e)),
            }
        }
        let completed = responses.len();
        let mut sorted = responses.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        Ok(RealTimeReport {
            algorithm: kind.name(),
            backend: self.backend.name(),
            concurrency,
            completed,
            failed: failures.len(),
            wall_s,
            qps: if wall_s > 0.0 {
                completed as f64 / wall_s
            } else {
                0.0
            },
            mean_response_s: if completed == 0 {
                0.0
            } else {
                sorted.iter().sum::<f64>() / completed as f64
            },
            p50_response_s: percentile(&sorted, 0.50),
            p95_response_s: percentile(&sorted, 0.95),
            p99_response_s: percentile(&sorted, 0.99),
            max_response_s: sorted.last().copied().unwrap_or(0.0),
            mean_nodes_per_query: if completed == 0 {
                0.0
            } else {
                total_nodes as f64 / completed as f64
            },
            responses,
            answers,
            failures,
        })
    }

    /// One closed-loop worker: claims queries off `cursor` and drives
    /// each session to completion on the calling thread, until the
    /// workload is exhausted.
    fn run_worker(
        &self,
        kind: AlgorithmKind,
        workload: &Workload,
        worker: u16,
        cursor: &AtomicUsize,
        clock: &WallClock,
        recording: bool,
    ) -> WorkerOutput {
        let mut outcomes = Vec::new();
        let mut events: Vec<(u64, ObsEvent)> = Vec::new();
        let mut scratch = crate::QueryScratch::new();
        // Tree level of every page this worker has seen (root = 0);
        // only maintained while some event consumer (recorder or
        // flight ring) wants it.
        let mut levels: HashMap<PageId, u16> = HashMap::new();
        let flight_on = self.live.as_ref().is_some_and(|live| live.flight_enabled());
        if recording || flight_on {
            levels.insert(self.am.root_page(), 0);
        }
        loop {
            let q = cursor.fetch_add(1, Ordering::Relaxed);
            if q >= workload.queries.len() {
                break;
            }
            let wq = &workload.queries[q];
            // Global serving id: counts the pickup and tags this
            // query's flight events.
            let live_q = self.live.as_ref().map(|live| live.begin_query());
            let result = kind
                .build_with(self.am, wq.point.clone(), wq.k, &mut scratch)
                .and_then(|algo| {
                    self.drive_session(
                        algo,
                        q as u32,
                        live_q,
                        worker,
                        clock,
                        recording,
                        &mut events,
                        &mut levels,
                        None,
                    )
                });
            if let Some(live) = &self.live {
                let query = live_q.unwrap_or(q as u32);
                live.observe_query(&observation(query, kind, wq.k, result.as_ref().ok()));
            }
            outcomes.push(SessionOutcome {
                index: q as u32,
                result,
            });
        }
        (outcomes, events)
    }

    /// Runs one k-NN query through the exact per-session machinery of
    /// [`Self::run`] and returns its introspection record next to its
    /// answers: per-level node accesses, batch sizes, the lemma-1
    /// threshold trajectory, the per-disk read distribution, the cache
    /// hit/miss split and the queue/service/CPU time breakdown.
    ///
    /// The query flows through the attached [`LiveTelemetry`] (serving
    /// id, counters, histograms, flight ring) exactly like a served
    /// query; the probe only observes, so answers and store `IoStats`
    /// are identical to an unexplained run. A slow-query-log entry for
    /// the query carries the full explain record, and when `predicted`
    /// is given the observed-minus-predicted residuals feed the
    /// telemetry's drift windows. Callers without an analytical model
    /// pass `lambda` 0, `calibrated` false and `predicted` `None`; the
    /// record then reports observations with null predictions.
    pub fn explain_query(
        &self,
        kind: AlgorithmKind,
        point: sqda_geom::Point,
        k: usize,
        lambda: f64,
        calibrated: bool,
        predicted: Option<sqda_obs::Prediction>,
    ) -> Result<(sqda_obs::QueryExplain, Vec<Neighbor>), QueryError> {
        let clock = WallClock::new();
        let mut scratch = crate::QueryScratch::new();
        let mut events: Vec<(u64, ObsEvent)> = Vec::new();
        let mut levels: HashMap<PageId, u16> = HashMap::new();
        levels.insert(self.am.root_page(), 0);
        let live_q = self.live.as_ref().map(|live| live.begin_query());
        let query = live_q.unwrap_or(0);
        let mut probe = ExplainProbe::new(self.am.num_disks());
        let result = kind
            .build_with(self.am, point, k, &mut scratch)
            .and_then(|algo| {
                self.drive_session(
                    algo,
                    query,
                    live_q,
                    0,
                    &clock,
                    false,
                    &mut events,
                    &mut levels,
                    Some(&mut probe),
                )
            });
        let done = match result {
            Ok(done) => done,
            Err(e) => {
                if let Some(live) = &self.live {
                    live.observe_query(&observation(query, kind, k, None));
                }
                return Err(e);
            }
        };
        let disk_service_ns = done.obs.seek_ns + done.obs.rotation_ns + done.obs.transfer_ns;
        let explain = sqda_obs::QueryExplain {
            query,
            algo: kind.name().to_string(),
            k,
            answers: done.answers.len(),
            nodes: done.nodes_visited,
            batches: done.obs.batches,
            level_accesses: probe.level_accesses,
            batch_sizes: probe.batch_sizes,
            threshold_trajectory: probe.thresholds,
            reads_per_disk: probe.reads_per_disk,
            cache_hits: probe.cache_hits,
            cache_misses: probe.cache_misses,
            response_ms: done.response_ns as f64 / 1e6,
            disk_queue_ms: done.obs.disk_queue_ns as f64 / 1e6,
            disk_service_ms: disk_service_ns as f64 / 1e6,
            cpu_ms: done.obs.cpu_ns as f64 / 1e6,
            lambda,
            calibrated,
            predicted,
        };
        if let Some(live) = &self.live {
            let record = explain.to_json();
            live.observe_query_explained(&observation(query, kind, k, Some(&done)), Some(&record));
            if let Some(accesses) = explain.residual_accesses() {
                // Saturated predictions have no latency residual; NaN is
                // dropped by the window, the access residual still lands.
                let latency = explain.residual_response_ms().unwrap_or(f64::NAN);
                live.observe_residual(accesses, latency);
            }
        }
        Ok((explain, done.answers))
    }

    /// Drives one session from `start` to `Done`: probe the node cache,
    /// submit the misses as one batch, decode completions, feed the
    /// algorithm — the simulator's Fetch/BusDone/CpuDone cycle with the
    /// event queue replaced by real completion delivery.
    #[allow(clippy::too_many_arguments)]
    fn drive_session(
        &self,
        algo: Box<dyn crate::SimilaritySearch>,
        q: u32,
        live_q: Option<u32>,
        worker: u16,
        clock: &WallClock,
        recording: bool,
        events: &mut Vec<(u64, ObsEvent)>,
        levels: &mut HashMap<PageId, u16>,
        mut probe: Option<&mut ExplainProbe>,
    ) -> Result<CompletedSession, QueryError> {
        // Four independent consumers of this session's observability,
        // all free to be off: the post-hoc recorder (workload-indexed
        // events), the flight ring (serving-id events, live clock), the
        // live aggregates (which need only the accumulators), and the
        // EXPLAIN probe (per-level/per-disk/threshold introspection).
        let live = self.live.as_deref();
        let flight = live.filter(|l| l.flight_enabled());
        let probing = probe.is_some();
        let observing = recording || live.is_some() || probing;
        let emitting = recording || flight.is_some();
        let tracking_levels = emitting || probing;
        let fq = live_q.unwrap_or(q);
        let arrival = clock.now_ns();
        let mut session = Session::new(algo, arrival);
        if recording {
            events.push((arrival, ObsEvent::QueryArrive { query: q }));
        }
        if let Some(l) = flight {
            l.record_event(l.now_ns(), ObsEvent::QueryArrive { query: fq });
        }
        session.pending = Some(session.algo.start());
        // Completions arrive in finish order; the batch is re-assembled
        // in request order so algorithms see exactly what the logical
        // and simulated executors deliver.
        let mut decoded: HashMap<PageId, IndexNode> = HashMap::new();
        let mut misses: Vec<PageId> = Vec::new();
        loop {
            let step = session
                .pending
                .take()
                .ok_or_else(|| QueryError::Invariant(format!("query {q} lost its pending step")))?;
            let pages = match step {
                Step::Done => break,
                Step::Fetch(pages) => pages,
            };
            if pages.is_empty() {
                return Err(QueryError::Invariant(format!(
                    "query {q} issued an empty fetch batch"
                )));
            }
            session.outstanding = pages.len();
            session.nodes_visited += pages.len() as u64;
            if observing {
                session.obs.batches += 1;
            }
            if let Some(l) = live {
                l.batch_size.observe(pages.len() as f64);
            }
            if let Some(p) = probe.as_deref_mut() {
                p.batch_sizes.push(pages.len() as u32);
                for page in &pages {
                    let l = levels.get(page).copied().unwrap_or_default() as usize;
                    if p.level_accesses.len() <= l {
                        p.level_accesses.resize(l + 1, 0);
                    }
                    p.level_accesses[l] += 1;
                }
            }
            if emitting {
                let mut level = u16::MAX;
                let mut level_max = 0u16;
                for page in &pages {
                    let l = levels.get(page).copied().unwrap_or_default();
                    level = level.min(l);
                    level_max = level_max.max(l);
                }
                let ev = ObsEvent::BatchIssued {
                    query: q,
                    level,
                    level_max,
                    size: pages.len() as u32,
                };
                if recording {
                    events.push((clock.now_ns(), ev));
                }
                if let Some(l) = flight {
                    l.record_event(l.now_ns(), retag(ev, fq));
                }
            }
            // Cache probes first (hit/miss accounting identical to the
            // read-through path), then one batched submission for the
            // misses: the whole activation round reads in parallel.
            decoded.clear();
            misses.clear();
            for &page in &pages {
                match self.am.cached_index_node(page)? {
                    Some(node) => {
                        if let Some(p) = probe.as_deref_mut() {
                            p.cache_hits += 1;
                        }
                        decoded.insert(page, node);
                    }
                    None => {
                        if let Some(p) = probe.as_deref_mut() {
                            p.cache_misses += 1;
                        }
                        misses.push(page);
                    }
                }
            }
            if !misses.is_empty() {
                let rx = self.backend.submit_batch(&misses);
                for _ in 0..misses.len() {
                    let completion = rx.recv().map_err(|_| {
                        QueryError::Invariant(format!(
                            "query {q}: I/O backend dropped a batch mid-flight"
                        ))
                    })?;
                    let bytes = completion.result?;
                    if observing {
                        session.obs.disk_queue_ns += completion.queue_ns;
                        session.obs.transfer_ns += completion.service_ns;
                    }
                    if let Some(p) = probe.as_deref_mut() {
                        if let Some(slot) = p.reads_per_disk.get_mut(completion.disk as usize) {
                            *slot += 1;
                        }
                    }
                    if emitting {
                        let level = levels.get(&completion.page).copied().unwrap_or_default();
                        let ev = ObsEvent::DiskService {
                            query: q,
                            disk: completion.disk as u16,
                            cylinder: completion.cylinder,
                            level,
                            queue_ns: completion.queue_ns,
                            seek_ns: 0,
                            rotation_ns: 0,
                            transfer_ns: completion.service_ns,
                            queue_depth: completion.queue_depth,
                        };
                        if recording {
                            events.push((clock.now_ns(), ev));
                        }
                        if let Some(l) = flight {
                            l.record_event(l.now_ns(), retag(ev, fq));
                        }
                    }
                    let node = self.am.decode_index_node(completion.page, bytes)?;
                    decoded.insert(completion.page, node);
                }
            }
            for &page in &pages {
                let node = decoded.remove(&page).ok_or_else(|| {
                    QueryError::Invariant(format!(
                        "query {q}: page {page:?} requested but never delivered"
                    ))
                })?;
                if tracking_levels {
                    if let IndexNode::Internal(block) = &node {
                        let child_level = levels.get(&page).copied().unwrap_or_default() + 1;
                        for child in block.children() {
                            levels.insert(child, child_level);
                        }
                    }
                }
                session.fetched.push((page, node));
                session.outstanding = settle_outstanding(session.outstanding, q as usize)?;
            }
            debug_assert_eq!(session.outstanding, 0);
            let cpu_start = Instant::now();
            let result = session.algo.on_fetched(&mut session.fetched);
            let cpu_ns = cpu_start.elapsed().as_nanos() as u64;
            debug_assert!(session.fetched.is_empty(), "algorithms drain the batch");
            session.fetched.clear();
            session.pending = Some(result.next);
            if observing {
                session.obs.cpu_ns += cpu_ns;
            }
            if let Some(pr) = probe.as_deref_mut() {
                if let Some(p) = session.algo.progress() {
                    pr.thresholds.push(p.d_th_sq.sqrt());
                }
            }
            if emitting {
                let ev = ObsEvent::CpuSlice {
                    query: q,
                    cpu: worker,
                    queue_ns: 0,
                    exec_ns: cpu_ns,
                    instructions: result.cpu_instructions,
                };
                if recording {
                    events.push((clock.now_ns(), ev));
                }
                if let Some(l) = flight {
                    l.record_event(l.now_ns(), retag(ev, fq));
                }
                if let Some(p) = session.algo.progress() {
                    let ev = ObsEvent::CrssState {
                        query: q,
                        d_th_sq: p.d_th_sq,
                        stack_runs: p.stack_runs,
                        stack_candidates: p.stack_candidates,
                    };
                    if recording {
                        events.push((clock.now_ns(), ev));
                    }
                    if let Some(l) = flight {
                        l.record_event(l.now_ns(), retag(ev, fq));
                    }
                }
            }
        }
        let now = clock.now_ns();
        session.finished_at = Some(now);
        let response_ns = now.saturating_sub(arrival);
        if emitting {
            let obs = session.obs;
            let ev = ObsEvent::QueryComplete {
                query: q,
                response_ns,
                nodes: session.nodes_visited,
                batches: obs.batches,
                disk_queue_ns: obs.disk_queue_ns,
                seek_ns: obs.seek_ns,
                rotation_ns: obs.rotation_ns,
                transfer_ns: obs.transfer_ns,
                bus_queue_ns: obs.bus_queue_ns,
                bus_ns: obs.bus_ns,
                cpu_queue_ns: obs.cpu_queue_ns,
                cpu_ns: obs.cpu_ns,
            };
            if recording {
                events.push((now, ev));
            }
            if let Some(l) = flight {
                l.record_event(l.now_ns(), retag(ev, fq));
            }
        }
        Ok(CompletedSession {
            response_ns,
            nodes_visited: session.nodes_visited,
            answers: session.algo.results(),
            obs: session.obs,
        })
    }
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
}

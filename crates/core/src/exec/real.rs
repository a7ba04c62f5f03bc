//! The real-clock executor: the same session core as the simulator,
//! scheduled by the machine's clock and a batched I/O backend instead of
//! the event queue and the disk timing model.
//!
//! The unit of work is one query ([`RealTimeEngine::query`]): one session
//! driven to completion on the calling thread over buffers the caller
//! owns ([`QueryScratch`]), so the engine keeps no per-query state. One
//! k-NN activation round becomes one [`IoBackend::submit_batch`] call —
//! over a [`ThreadedFileBackend`](sqda_storage::ThreadedFileBackend) the
//! batch's pages are read concurrently across the per-disk files, which
//! is the paper's intra-query parallelism on real hardware.
//! [`RealTimeEngine::run`] is a closed loop over that path: `concurrency`
//! workers each drive one query at a time, so "arrival" is the moment a
//! worker picks the query up (the Poisson schedule of a [`Workload`] only
//! has meaning under the simulator). A lone worker is the calling thread
//! itself; only two or more are spawned.
//!
//! Every query fills one [`QueryExplain`] record in its scratch — batch
//! sizes, per-level node accesses, per-disk reads, the cache split, the
//! threshold trajectory and the time breakdown — and hands it to the
//! attached [`LiveTelemetry`] in one call at completion or abort. An
//! `EXPLAIN` runs the same path and returns a copy of the record.
//!
//! Observability uses the same vocabulary as the simulated engine —
//! `query_arrive`, `batch_issued`, `disk_service`, `cpu_slice`,
//! `query_complete`, `query_abort` — narrated to the flight ring of the
//! attached [`LiveTelemetry`] under the query's serving id, on the
//! registry's clock. Wall-clock `disk_service` carries measured queue and
//! transfer times (seek/rotation are not separable on real files), and
//! there are no `bus_transfer` events: the memory bus is not observable
//! from user space.

use super::clock::{EngineClock, WallClock};
use super::session::{per, CpuCharge, DiskRead, Narrator, QueryRun, Session};
use crate::access::{AccessMethod, IndexNode, QueryScratch};
use crate::algo::{AlgorithmKind, Neighbor, SimilaritySearch};
use crate::error::QueryError;
use crate::workload::Workload;
use sqda_geom::Point;
use sqda_obs::stats::percentile;
use sqda_obs::{LiveTelemetry, Prediction, QueryExplain, Recorder};
use sqda_storage::{IoBackend, PageId, ReadCompletion};
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
    /// Concurrent worker sessions that ran.
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
    /// Mean fetch rounds (batches) per completed query.
    pub mean_batches_per_query: f64,
    /// Response time of every completed query, in workload index order.
    pub responses: Vec<f64>,
    /// The k-NN answers of every query, in workload index order
    /// (empty for aborted queries).
    pub answers: Vec<Vec<Neighbor>>,
    /// The typed error of every aborted query, keyed by workload index.
    pub failures: Vec<(u32, QueryError)>,
}

/// What an explained query is asked with beyond a bare one: the arrival
/// rate its prediction assumed, whether that prediction used a device
/// calibration, and the prediction itself.
type ExplainRequest = (f64, bool, Option<Prediction>);

/// Reusable buffers of [`fetch_round`]; after a round, `nodes` holds its
/// decoded nodes in request order, `misses` the pages the backend read
/// and `waited` whether any of those reads waited on a disk
/// ([`ReadCompletion::waited`]).
#[derive(Default)]
pub(crate) struct Round {
    /// `(page, position in the request)` of every miss, sorted, so a
    /// completion finds its slot whatever order reads finish in.
    slots: Vec<(PageId, usize)>,
    pub(crate) misses: Vec<PageId>,
    pub(crate) nodes: Vec<Option<IndexNode>>,
    pub(crate) waited: bool,
}

impl Round {
    /// Takes the round's nodes, in request order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = IndexNode> + '_ {
        self.nodes.drain(..).flatten()
    }
}

/// Reads one round's pages through `backend`: cache probes first
/// (hit/miss accounting identical to the read-through path), then one
/// `submit_batch` for the misses, so the whole round reads in parallel.
/// Completions arrive in finish order — `on_read` sees each as it lands —
/// and are slotted back into request order, so callers get exactly what
/// the logical and simulated executors deliver.
pub(crate) fn fetch_round<A: AccessMethod + ?Sized>(
    am: &A,
    backend: &dyn IoBackend,
    pages: &[PageId],
    round: &mut Round,
    mut on_read: impl FnMut(&ReadCompletion),
) -> Result<(), QueryError> {
    round.slots.clear();
    round.misses.clear();
    round.nodes.clear();
    round.waited = false;
    for (at, &page) in pages.iter().enumerate() {
        let node = am.cached_index_node(page)?;
        if node.is_none() {
            round.slots.push((page, at));
            round.misses.push(page);
        }
        round.nodes.push(node);
    }
    if round.misses.is_empty() {
        return Ok(());
    }
    round.slots.sort_unstable();
    let rx = backend.submit_batch(&round.misses);
    for _ in 0..round.misses.len() {
        let completion = rx
            .recv()
            .map_err(|_| QueryError::Invariant("I/O backend dropped a batch mid-flight".into()))?;
        on_read(&completion);
        round.waited |= completion.waited;
        let page = completion.page;
        let node = am.decode_index_node(page, completion.result?)?;
        let awaited = round.slots.binary_search_by_key(&page, |&(p, _)| p);
        let Some(at) = awaited
            .ok()
            .map(|i| round.slots[i].1)
            .filter(|&at| round.nodes[at].is_none())
        else {
            return Err(QueryError::Invariant(format!(
                "page {page:?} delivered but not awaited"
            )));
        };
        round.nodes[at] = Some(node);
    }
    if let Some(at) = round.nodes.iter().position(Option::is_none) {
        let page = pages[at];
        return Err(QueryError::Invariant(format!(
            "page {page:?} requested but never delivered"
        )));
    }
    Ok(())
}

/// The wall-clock twin of [`super::Simulation`]: runs queries with the
/// same batch state machines, real reads through an [`IoBackend`], and
/// the machine's clock. It holds the tree, the backend and the telemetry;
/// a query's buffers are its caller's.
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
    /// Each round is read through this engine's [`IoBackend`] exactly as
    /// a session's batch is — over a threaded backend the whole
    /// wavefront reads concurrently across the per-disk files. Returns
    /// the batch report and the wall-clock seconds the batch took.
    pub fn run_query_batch(
        &self,
        queries: &[sqda_geom::Point],
        k: usize,
    ) -> Result<(crate::batch::BatchKnnReport, f64), QueryError> {
        let started = Instant::now();
        let mut scratch = crate::batch::BatchScratch::new();
        let backend = Some(self.backend.as_ref());
        let report = crate::batch::batch_knn_with(self.am, backend, queries, k, &mut scratch)?;
        Ok((report, started.elapsed().as_secs_f64()))
    }

    /// Runs one k-NN query under `kind` to completion on the calling
    /// thread — the call `sqda serve`'s `QUERY` makes. `scratch` lends the
    /// algorithm its working memory and the session its round buffers; a
    /// caller that keeps it from one query to the next grows them once.
    ///
    /// # Errors
    ///
    /// The query's typed error: a failed read or decode, or a query its
    /// algorithm refuses (a point of the wrong dimensionality).
    pub fn query(
        &self,
        kind: AlgorithmKind,
        point: Point,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<QueryRun, QueryError> {
        self.run_one(kind, point, k, 0, scratch, None)
    }

    /// Runs `workload` under `kind` with up to `concurrency` worker
    /// sessions, no more than there are queries: each worker claims the
    /// next query and runs it down [`Self::query`]'s path over a scratch
    /// of its own. A lone worker is the calling thread. A query that
    /// fails is a failure in the report, booked in workload order like
    /// every outcome.
    ///
    /// # Errors
    ///
    /// [`QueryError::Invariant`] if a worker thread panicked.
    pub fn run(
        &self,
        kind: AlgorithmKind,
        workload: &Workload,
        concurrency: usize,
    ) -> Result<RealTimeReport, QueryError> {
        let queries = &workload.queries;
        let workers = concurrency.clamp(1, queries.len().max(1));
        let started = Instant::now();
        let cursor = AtomicUsize::new(0);
        let worker = |cpu: usize| {
            let mut scratch = QueryScratch::new();
            let mut outcomes = Vec::new();
            loop {
                let q = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(wq) = queries.get(q) else {
                    break outcomes;
                };
                let point = wq.point.clone();
                let result = self.run_one(kind, point, wq.k, cpu as u16, &mut scratch, None);
                outcomes.push((q, result.map(|run| (run, scratch.record.response_ms))));
            }
        };
        let outcomes = if workers == 1 {
            worker(0)
        } else {
            let joined: Vec<_> = std::thread::scope(|scope| {
                let worker = &worker;
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || worker(w)))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            let mut outcomes = Vec::with_capacity(queries.len());
            for mine in joined {
                let panicked =
                    |_| QueryError::Invariant("a real-clock engine worker panicked".into());
                outcomes.extend(mine.map_err(panicked)?);
            }
            outcomes.sort_by_key(|&(q, _)| q);
            outcomes
        };
        let wall_s = started.elapsed().as_secs_f64();

        let mut responses = Vec::new();
        let mut answers = vec![Vec::new(); queries.len()];
        let mut failures = Vec::new();
        let (mut total_nodes, mut total_batches) = (0u64, 0u64);
        for (q, outcome) in outcomes {
            match outcome {
                Ok((run, response_ms)) => {
                    responses.push(response_ms / 1e3);
                    total_nodes += run.nodes_visited;
                    total_batches += run.batches;
                    answers[q] = run.results;
                }
                Err(e) => failures.push((q as u32, e)),
            }
        }
        let completed = responses.len();
        let mut sorted = responses.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(RealTimeReport {
            algorithm: kind.name(),
            backend: self.backend.name(),
            concurrency: workers,
            completed,
            failed: failures.len(),
            wall_s,
            qps: if wall_s > 0.0 {
                completed as f64 / wall_s
            } else {
                0.0
            },
            mean_response_s: per(sorted.iter().sum(), completed),
            p50_response_s: percentile(&sorted, 0.50),
            p95_response_s: percentile(&sorted, 0.95),
            p99_response_s: percentile(&sorted, 0.99),
            max_response_s: sorted.last().copied().unwrap_or(0.0),
            mean_nodes_per_query: per(total_nodes as f64, completed),
            mean_batches_per_query: per(total_batches as f64, completed),
            responses,
            answers,
            failures,
        })
    }

    /// Runs one k-NN query down [`Self::query`]'s path, over `scratch`,
    /// and returns a copy of its record next to its answers: per-level
    /// node accesses, batch sizes, the lemma-1 threshold trajectory, the
    /// per-disk read distribution, the cache hit/miss split and the
    /// queue/service/CPU time breakdown.
    ///
    /// The query flows through the attached [`LiveTelemetry`] exactly
    /// like a served one, so answers and store `IoStats` are identical to
    /// an unexplained run; its slow-query-log entry, if any, embeds the
    /// record. `request` is `(lambda, calibrated, predicted)`: the arrival
    /// rate the prediction assumed, whether it used a device calibration,
    /// and the prediction itself; when one is given the
    /// observed-minus-predicted residuals feed the telemetry's drift
    /// windows. Callers without an analytical model pass `(0.0, false,
    /// None)`; the record then reports observations with null
    /// predictions.
    pub fn explain_query(
        &self,
        kind: AlgorithmKind,
        point: Point,
        k: usize,
        request: (f64, bool, Option<Prediction>),
        scratch: &mut QueryScratch,
    ) -> Result<(QueryExplain, Vec<Neighbor>), QueryError> {
        let run = self.run_one(kind, point, k, 0, scratch, Some(request))?;
        Ok((scratch.record.clone(), run.results))
    }

    /// One query from pickup to the books, the path `query`, `run` and
    /// `explain_query` share: takes a serving id from the live telemetry
    /// (which counts the pickup and tags the query's flight events),
    /// builds the algorithm over `scratch`, drives its session on CPU
    /// track `cpu` — filling `scratch`'s record on the way — and hands the
    /// record to the live telemetry in one call. An `explain` request is
    /// attached to the record, which its slow-log line then embeds.
    fn run_one(
        &self,
        kind: AlgorithmKind,
        point: Point,
        k: usize,
        cpu: u16,
        scratch: &mut QueryScratch,
        explain: Option<ExplainRequest>,
    ) -> Result<QueryRun, QueryError> {
        let live = self.live.as_deref();
        let query = live.map_or(0, LiveTelemetry::begin_query);
        let wall;
        let clock: &dyn EngineClock = match live {
            Some(live) => live,
            None => {
                wall = WallClock::new();
                &wall
            }
        };
        // The flight ring, when armed, is the query's one narration sink.
        let mut flight = live;
        let flight = flight.as_mut().map(|f| f as &mut dyn Recorder);
        let mut nar = Narrator::new(clock, flight, self.am.root_page());
        let record = &mut scratch.record;
        record.reset(query, kind.name(), k, self.am.num_disks() as usize);
        (record.lambda, record.calibrated, record.predicted) =
            explain.unwrap_or((0.0, false, None));
        let result = kind
            .build_with(self.am, point, k, scratch)
            .and_then(|mut algo| self.drive_session(algo.as_mut(), query, cpu, &mut nar, scratch));
        scratch.record.failed = result.is_err();
        if let Some(live) = live {
            live.observe_query(&scratch.record, explain.is_some());
        }
        result
    }

    /// Drives one session from arrival to completion or abort: the
    /// simulator's Fetch/BusDone/CpuDone cycle with the event queue
    /// replaced by real completion delivery, one [`fetch_round`] per
    /// batch, and between rounds the algorithm's width
    /// ([`SimilaritySearch::set_width`]) from where the round's reads
    /// were served. `scratch`'s record takes each round's size as it is
    /// issued, its reads, cache split, per-level accesses and threshold,
    /// and the totals at completion. A failed read or decode aborts the
    /// session — narrated, so the stream's `query_arrive` is closed — and
    /// surfaces as the query's typed error.
    fn drive_session(
        &self,
        algo: &mut dyn SimilaritySearch,
        query: u32,
        cpu: u16,
        nar: &mut Narrator<'_>,
        scratch: &mut QueryScratch,
    ) -> Result<QueryRun, QueryError> {
        let disks = self.am.num_disks() as usize;
        scratch.batch.clear();
        let buffer = std::mem::take(&mut scratch.batch);
        let (pages, round, record) = (&mut scratch.pages, &mut scratch.round, &mut scratch.record);
        let mut session = Session::new(algo, query, buffer);
        session.arrive(nar);
        // The disk of the last read the query saw complete: the failing
        // one when a read is what ends it.
        let mut last_disk = 0u16;
        // Every algorithm's first round is the root, so a node's depth is
        // the first node's level minus its own.
        let mut root_level = None;
        let mut rounds = || -> Result<(), QueryError> {
            while session.next_batch(nar, pages)? {
                record.batch_sizes.push(pages.len() as u32);
                fetch_round(self.am, self.backend.as_ref(), pages, round, |done| {
                    last_disk = done.disk as u16;
                    if let Some(slot) = record.reads_per_disk.get_mut(done.disk as usize) {
                        *slot += 1;
                    }
                    let read = DiskRead {
                        disk: done.disk as u16,
                        cylinder: done.cylinder,
                        queue_ns: done.queue_ns,
                        seek_ns: 0,
                        rotation_ns: 0,
                        transfer_ns: done.service_ns,
                        queue_depth: done.queue_depth,
                    };
                    session.disk_read(nar, done.page, read);
                })?;
                record.cache_misses += round.misses.len() as u64;
                record.cache_hits += (pages.len() - round.misses.len()) as u64;
                // The array's parallelism is bought per round, and only
                // while reads wait on disks: a round memory served says
                // the next one would overlap nothing.
                session.set_width(if round.waited { disks } else { 1 });
                for (&page, node) in pages.iter().zip(round.drain()) {
                    let level = node.level();
                    let depth = root_level.get_or_insert(level).saturating_sub(level) as usize;
                    if record.level_accesses.len() <= depth {
                        record.level_accesses.resize(depth + 1, 0);
                    }
                    record.level_accesses[depth] += 1;
                    session.deliver(nar, page, node, |_, elapsed_ns| CpuCharge {
                        cpu,
                        queue_ns: 0,
                        exec_ns: elapsed_ns,
                    })?;
                }
                if let Some(progress) = session.progress() {
                    record.threshold_trajectory.push(progress.d_th_sq.sqrt());
                }
            }
            Ok(())
        };
        if let Err(e) = rounds() {
            session.abort(nar, last_disk, 1);
            return Err(e);
        }
        let response_ns = session.complete(nar);
        let obs = session.obs;
        let ms = |ns: u64| ns as f64 / 1e6;
        record.nodes = session.nodes_visited;
        record.batches = obs.batches;
        record.response_ms = ms(response_ns);
        record.disk_queue_ms = ms(obs.disk_queue_ns);
        record.disk_service_ms = ms(obs.seek_ns + obs.rotation_ns + obs.transfer_ns);
        record.cpu_ms = ms(obs.cpu_ns);
        let run = session.finish(scratch);
        scratch.record.answers = run.results.len();
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{BatchResult, Step};
    use crate::exec::{run_query, RunOptions, Simulation};
    use crate::workload::WorkloadQuery;
    use sqda_obs::CollectingRecorder;
    use sqda_rstar::decluster::ProximityIndex;
    use sqda_rstar::{RStarConfig, RStarTree};
    use sqda_simkernel::{SimTime, SystemParams};
    use sqda_storage::{ArrayStore, InlineBackend};

    /// Asks for an empty batch straight away — one no delivery could
    /// ever complete.
    struct EmptyFetcher;

    impl SimilaritySearch for EmptyFetcher {
        fn start(&mut self) -> Step {
            Step::Fetch(Vec::new())
        }
        fn on_fetched(&mut self, _nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult {
            unreachable!("an empty batch is never delivered")
        }
        fn results(&self) -> Vec<Neighbor> {
            Vec::new()
        }
        fn name(&self) -> &'static str {
            "empty-fetcher"
        }
    }

    /// The three executors share `Session::next_batch`, so a misbehaving
    /// algorithm gets the same typed error from each — the logical
    /// executor used to panic here — and the real-clock engine closes
    /// the query's narration with a `query_abort`.
    #[test]
    fn empty_fetch_batch_is_a_typed_invariant_under_every_executor() {
        let store = Arc::new(ArrayStore::new(2, 1449, 1));
        let config = RStarConfig::new(2).with_max_entries(8);
        let mut tree = RStarTree::create(store, config, Box::new(ProximityIndex)).unwrap();
        tree.insert(Point::new(vec![1.0, 1.0]), 0).unwrap();
        let assert_invariant = |e: QueryError, executor: &str| match e {
            QueryError::Invariant(msg) => assert!(msg.contains("empty fetch batch"), "{msg}"),
            other => panic!("{executor}: expected Invariant, got {other:?}"),
        };

        assert_invariant(run_query(&tree, &mut EmptyFetcher).unwrap_err(), "logical");

        let workload = Workload {
            queries: vec![WorkloadQuery {
                arrival: SimTime::ZERO,
                point: Point::new(vec![1.0, 1.0]),
                k: 1,
            }],
        };
        let sim = Simulation::new(&tree, SystemParams::with_disks(2)).unwrap();
        let mut factory = |_, _, _| -> Box<dyn SimilaritySearch> { Box::new(EmptyFetcher) };
        let options = RunOptions::factory("empty-fetcher", &mut factory);
        assert_invariant(
            sim.run_with(&workload, 1, options).unwrap_err(),
            "simulated",
        );

        let backend = Arc::new(InlineBackend::new(Arc::clone(tree.store())));
        let engine = RealTimeEngine::new(&tree, backend).unwrap();
        let clock = WallClock::new();
        let mut events = CollectingRecorder::new();
        let mut nar = Narrator::new(&clock, Some(&mut events), tree.root_page());
        let mut scratch = QueryScratch::new();
        let result = engine.drive_session(&mut EmptyFetcher, 0, 0, &mut nar, &mut scratch);
        drop(nar);
        assert_invariant(result.map(|_| ()).unwrap_err(), "real-clock");
        let kinds: Vec<&str> = events.events().iter().map(|(_, e)| e.kind()).collect();
        assert_eq!(kinds, ["query_arrive", "query_abort"]);
    }

    /// A tree of 20 points on the x axis, over two in-memory disks.
    fn small_tree() -> RStarTree<ArrayStore> {
        let store = Arc::new(ArrayStore::new(2, 1449, 1));
        let config = RStarConfig::new(2).with_max_entries(8);
        let mut tree = RStarTree::create(store, config, Box::new(ProximityIndex)).unwrap();
        for i in 0..20u64 {
            tree.insert(Point::new(vec![i as f64, 0.0]), i).unwrap();
        }
        tree
    }

    fn workload(n: usize) -> Workload {
        let queries = (0..n).map(|i| WorkloadQuery {
            arrival: SimTime::ZERO,
            point: Point::new(vec![i as f64, 0.5]),
            k: 2,
        });
        Workload {
            queries: queries.collect(),
        }
    }

    /// `run` starts no more workers than there are queries, and reports
    /// the workers that ran.
    #[test]
    fn run_starts_no_more_workers_than_queries() {
        let tree = small_tree();
        let backend = Arc::new(InlineBackend::new(Arc::clone(tree.store())));
        let engine = RealTimeEngine::new(&tree, backend).unwrap();
        for (queries, concurrency, workers) in [(2, 3, 2), (0, 3, 1), (3, 1, 1)] {
            let report = engine
                .run(AlgorithmKind::Crss, &workload(queries), concurrency)
                .unwrap();
            assert_eq!(
                report.concurrency, workers,
                "{queries} queries x{concurrency}"
            );
            assert_eq!(report.completed, queries);
        }
    }

    /// Forwards to the tree but panics on every node read.
    struct PanicOnRead<'a>(&'a RStarTree<ArrayStore>);

    impl AccessMethod for PanicOnRead<'_> {
        fn root_page(&self) -> PageId {
            AccessMethod::root_page(self.0)
        }
        fn num_disks(&self) -> u32 {
            AccessMethod::num_disks(self.0)
        }
        fn read_index_node(&self, _page: PageId) -> Result<IndexNode, QueryError> {
            panic!("a node read panicked")
        }
        fn placement(&self, page: PageId) -> Result<sqda_storage::Placement, QueryError> {
            AccessMethod::placement(self.0, page)
        }
    }

    /// A worker thread that panics fails the run with a typed error
    /// instead of taking the caller down with it.
    #[test]
    fn a_panicking_worker_is_a_typed_invariant() {
        let tree = small_tree();
        let am = PanicOnRead(&tree);
        let backend = Arc::new(InlineBackend::new(Arc::clone(tree.store())));
        let engine = RealTimeEngine::new(&am, backend).unwrap();
        match engine.run(AlgorithmKind::Crss, &workload(2), 2) {
            Err(QueryError::Invariant(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected Invariant, got {other:?}"),
        }
    }
}

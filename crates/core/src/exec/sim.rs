//! The simulated executor: the event-driven queueing network of
//! Section 4.1 (Figure 7) driving the algorithm state machines.
//!
//! Each query session cycles through: CPU processing → page requests to
//! per-disk FCFS queues → page transfers over the shared bus → next CPU
//! step, until its algorithm reports `Done`. Query arrivals follow the
//! workload's (Poisson) schedule. Response time is measured from arrival
//! to completion, averaged over all queries — the paper's primary metric
//! for the multi-user experiments (Figures 10–12, Tables 3–4).
//!
//! The per-query lifecycle is the shared [`Session`] core; what lives
//! here is the scheduler — the event queue, the disk/bus/CPU models and
//! the degraded-mode routing that decide *when* each page of a batch is
//! delivered. The run optionally narrates itself through a
//! [`Recorder`](sqda_obs::Recorder): every arrival, disk service (with
//! its queue/seek/rotation/transfer breakdown), bus grant, CPU slice and
//! completion becomes a structured [`sqda_obs::Event`]. With the default
//! [`NullRecorder`](sqda_obs::NullRecorder) nothing is built per event,
//! and simulated timing is untouched either way (recording observes,
//! never steers).
//!
//! Host work is kept to what the model needs. A run decodes each page
//! at most once, into a run-local [`PageTable`] every delivery and
//! every WOPTSS oracle reads through, so the access method's own I/O
//! counters see one read per distinct page. The simulated reads are
//! counted by the simulator ([`SimulationReport::reads_per_disk`]). A
//! query's algorithm and session are built when it arrives and dropped
//! when it completes, and the event queue holds only the events in
//! flight: arrivals are merged in from the workload
//! ([`ArrivalMerge`]) in the order pre-scheduling them gave.

use super::clock::VirtualClock;
use super::session::{
    least_busy_cpu, per, route_read, CpuCharge, DiskRead, Narrator, Route, Session,
};
use crate::access::{AccessMethod, IndexNode};
use crate::algo::{AlgorithmKind, SimilaritySearch};
use crate::error::QueryError;
use crate::workload::Workload;
use crate::QueryScratch;
use sqda_geom::Point;
use sqda_obs::stats::{nearest_rank, MetricSummary};
use sqda_obs::{Event as ObsEvent, Recorder};
use sqda_simkernel::{
    ArrivalMerge, Bus, Cpu, Disk, DiskFault, EventQueue, FaultPlan, Popped, RetryPolicy, SimTime,
    SystemParams,
};
use sqda_storage::{IoStats, PageId, PageIdHashBuilder, Placement};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Aggregated results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Which algorithm ran.
    pub algorithm: &'static str,
    /// Queries completed (the full workload in fault-free runs; under
    /// fault injection, the queries that were not aborted).
    pub completed: usize,
    /// Mean response time in seconds (the paper's headline metric).
    pub mean_response_s: f64,
    /// Standard deviation of response times.
    pub std_response_s: f64,
    /// Maximum response time observed.
    pub max_response_s: f64,
    /// 95th-percentile response time.
    pub p95_response_s: f64,
    /// Mean nodes fetched per query.
    pub mean_nodes_per_query: f64,
    /// Simulated page reads by the disk each page is placed on: one per
    /// read submitted to a disk, counted on the page's own disk even
    /// when its shadow replica served it. The run's reads, which the
    /// access method's store no longer sees one by one.
    pub reads_per_disk: Vec<u64>,
    /// Mean utilization across disks over the simulated horizon.
    pub mean_disk_utilization: f64,
    /// Bus utilization over the simulated horizon.
    pub bus_utilization: f64,
    /// CPU utilization over the simulated horizon.
    pub cpu_utilization: f64,
    /// Time the last query completed.
    pub makespan_s: f64,
    /// Queries aborted with a typed error under fault injection
    /// (always 0 in fault-free runs).
    pub failed: usize,
    /// Reads served by a shadow replica because the primary disk was
    /// failed at submission time.
    pub degraded_reads: u64,
    /// Probes of pages that found no live replica (each probe of each
    /// retry loop counts once).
    pub read_retries: u64,
    /// The typed error of every aborted query, keyed by workload index.
    pub failures: Vec<(u32, QueryError)>,
    /// Response time of every completed query, in workload (= arrival)
    /// index order. Feeds warm-up truncation and replication statistics;
    /// aborted queries are skipped.
    pub responses: Vec<f64>,
}

enum Event {
    DiskDone {
        q: usize,
        page: PageId,
    },
    BusDone {
        q: usize,
        page: PageId,
    },
    CpuDone {
        q: usize,
    },
    /// Re-probe a page whose every replica was unavailable (degraded
    /// mode only; never scheduled under an empty fault plan).
    Retry {
        q: usize,
        page: PageId,
        attempt: u32,
    },
}

/// Produces the algorithm instance of one workload query, given its
/// workload index, point and `k`. Called when that query arrives, so in
/// arrival order.
pub type AlgoFactory<'a> = dyn FnMut(usize, Point, usize) -> Box<dyn SimilaritySearch> + 'a;

enum AlgoSource<'a> {
    Kind(AlgorithmKind),
    Factory(&'a mut AlgoFactory<'a>),
}

/// What [`Simulation::run_with`] runs besides the workload and the
/// seed: where the algorithm instances come from, the faults to inject
/// and the recorder to narrate through.
pub struct RunOptions<'a> {
    name: &'static str,
    algo: AlgoSource<'a>,
    plan: Option<&'a FaultPlan>,
    recorder: Option<&'a mut dyn Recorder>,
}

impl<'a> RunOptions<'a> {
    fn new(name: &'static str, algo: AlgoSource<'a>) -> Self {
        Self {
            name,
            algo,
            plan: None,
            recorder: None,
        }
    }

    /// A fault-free, unrecorded run of one of the four algorithms.
    pub fn kind(kind: AlgorithmKind) -> Self {
        Self::new(kind.name(), AlgoSource::Kind(kind))
    }

    /// A fault-free, unrecorded run of instances produced by `factory`
    /// and reported as `name` — for parameter sweeps like the CRSS
    /// activation-bound ablation, where [`AlgorithmKind`] cannot carry
    /// the parameter, and for tests that wrap an algorithm to observe
    /// its answers.
    pub fn factory(name: &'static str, factory: &'a mut AlgoFactory<'a>) -> Self {
        Self::new(name, AlgoSource::Factory(factory))
    }

    /// Injects the faults of `plan`.
    ///
    /// With the empty plan the run is byte-identical to a fault-free one
    /// (same RNG stream, same timing, same report). Under a non-empty
    /// plan, reads targeting a failed disk are redirected to the shadow
    /// replica when the array is mirrored; pages with no live replica
    /// are re-probed under the plan's retry policy and the owning query
    /// aborts with [`QueryError::Unavailable`] when the budget runs out
    /// — per-query failures land in [`SimulationReport::failures`],
    /// they do not fail the run.
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Narrates the run through `recorder` (see [`sqda_obs`]). Timing
    /// and results are identical to an unrecorded run with the same
    /// seed. Fault transitions are narrated as first-class events
    /// (`disk_failed`, `disk_recovered`, `disk_degraded`,
    /// `degraded_read`, `read_retry`, `query_abort`).
    pub fn recorded(mut self, recorder: &'a mut dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// Narrates a fault plan's transitions up front: they are scheduled
/// facts, not simulation outcomes, so they do not flow through the event
/// queue. Consumers that care about ordering (metrics, Perfetto) scan
/// the whole stream first.
fn narrate_plan(plan: &FaultPlan, recorder: &mut dyn Recorder) {
    for fault in plan.faults() {
        // A slow window and a hot spot are both a degraded window: one
        // scales service time, the other adds to it.
        let (disk, from, until, multiplier, extra) = match *fault {
            DiskFault::FailStop {
                disk,
                at,
                recovers_at,
            } => {
                let disk = disk as u16;
                recorder.record(at.as_nanos(), ObsEvent::DiskFailed { disk });
                if let Some(rec) = recovers_at {
                    recorder.record(rec.as_nanos(), ObsEvent::DiskRecovered { disk });
                }
                continue;
            }
            DiskFault::SlowWindow {
                disk,
                from,
                until,
                multiplier,
            } => (disk, from, until, multiplier, SimTime::ZERO),
            DiskFault::HotSpot {
                disk,
                from,
                until,
                extra,
            } => (disk, from, until, 1.0, extra),
        };
        let event = ObsEvent::DiskDegraded {
            disk: disk as u16,
            until_ns: until.as_nanos(),
            multiplier,
            extra_ns: extra.as_nanos(),
        };
        recorder.record(from.as_nanos(), event);
    }
}

/// An event-driven simulation of the disk-array system executing one
/// workload with one algorithm over any access method.
pub struct Simulation<'t, A: AccessMethod + ?Sized> {
    am: &'t A,
    params: SystemParams,
}

impl<'t, A: AccessMethod + ?Sized> Simulation<'t, A> {
    /// Creates a simulation over an access method with the given system
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Config`] if `params.num_disks` disagrees
    /// with the array backing the index — its pages are placed on that
    /// array, so simulating a differently-sized one would be meaningless.
    pub fn new(am: &'t A, params: SystemParams) -> Result<Self, QueryError> {
        if params.num_disks != am.num_disks() {
            return Err(QueryError::Config(format!(
                "simulation disk count must match the store the tree lives on \
                 (simulation has {}, array has {})",
                params.num_disks,
                am.num_disks()
            )));
        }
        Ok(Self { am, params })
    }

    /// Runs `workload` under `kind`, returning aggregate statistics.
    ///
    /// `seed` drives the stochastic parts of the timing model (rotational
    /// latencies); the workload carries its own arrival schedule.
    pub fn run(
        &self,
        kind: AlgorithmKind,
        workload: &Workload,
        seed: u64,
    ) -> Result<SimulationReport, QueryError> {
        self.run_with(workload, seed, RunOptions::kind(kind))
    }

    /// Like [`Simulation::run`], but narrates the run through `recorder`
    /// (see [`RunOptions::recorded`]).
    pub fn run_recorded(
        &self,
        kind: AlgorithmKind,
        workload: &Workload,
        seed: u64,
        recorder: &mut dyn Recorder,
    ) -> Result<SimulationReport, QueryError> {
        self.run_with(workload, seed, RunOptions::kind(kind).recorded(recorder))
    }

    /// Runs `workload` as `options` say: the one entry point every other
    /// `run*` is a front for.
    ///
    /// # Errors
    ///
    /// [`QueryError::Config`] if the fault plan names a disk the array
    /// does not have; otherwise whatever building an algorithm instance
    /// or reading a page fails with. A query that runs out of replicas
    /// is a per-query failure in the report, not an error.
    pub fn run_with(
        &self,
        workload: &Workload,
        seed: u64,
        options: RunOptions<'_>,
    ) -> Result<SimulationReport, QueryError> {
        let no_faults = FaultPlan::none();
        let plan = options.plan.unwrap_or(&no_faults);
        if let Some(max) = plan.max_disk() {
            if max >= self.params.num_disks {
                return Err(QueryError::Config(format!(
                    "fault plan references disk {max} but the array has only {} disks",
                    self.params.num_disks
                )));
            }
        }
        let mut disks: Vec<Disk> = (0..self.params.num_disks)
            .map(|_| Disk::new(self.params.disk.clone()))
            .collect();
        // Degraded-mode state. `faulted` gates every fault-path branch:
        // with an empty plan no profile is installed, no fault event is
        // emitted and reads are routed by the pre-fault logic verbatim,
        // which keeps empty-plan runs byte-identical to `run`.
        let faulted = !plan.is_empty();
        // (The cast shortens the recorder's lifetime to this run's.)
        let mut recorder = options
            .recorder
            .map(|r| r as &mut dyn Recorder)
            .filter(|r| r.enabled());
        if faulted {
            for (d, disk) in disks.iter_mut().enumerate() {
                let profile = plan.profile_for(d as u32);
                if !profile.is_clean() {
                    disk.set_fault_profile(profile);
                }
            }
            if let Some(recorder) = recorder.as_deref_mut() {
                narrate_plan(plan, recorder);
            }
        }

        // The virtual clock tracks the event being processed; the session
        // core reads it and recorder timestamps flow through it, exactly
        // as the real-clock engine stamps through its wall clock.
        let clock = VirtualClock::new();
        let n = workload.queries.len();
        let mut run = Run {
            pages: PageTable::new(self.am),
            params: &self.params,
            workload,
            algo: options.algo,
            scratch: QueryScratch::new(),
            rng: sqda_geom::rng::Rng::seed_from_u64(seed),
            disks,
            bus: Bus::new(self.params.bus_transfer()),
            cpus: (0..self.params.num_cpus.max(1))
                .map(|_| Cpu::new(self.params.cpu_mips))
                .collect(),
            events: EventQueue::new(),
            sessions: (0..n).map(|_| None).collect(),
            batch: Vec::new(),
            nar: Narrator::new(&clock, recorder, self.am.root_page()),
            faulted,
            retry: plan.retry(),
            degraded_reads: 0,
            read_retries: 0,
            reads_per_disk: vec![0; self.params.num_disks as usize],
            failures: Vec::new(),
            response_times: Vec::new(),
            responses: vec![None; n],
            total_nodes: 0,
            makespan: SimTime::ZERO,
        };
        let mut arrivals = ArrivalMerge::new(workload.queries.iter().map(|wq| wq.arrival));
        while let Some((now, next)) = arrivals.pop(&mut run.events) {
            clock.advance(now);
            match next {
                Popped::Arrival(q) => run.arrive(now, q)?,
                Popped::Event(event) => run.step(now, event)?,
            }
        }
        Ok(run.report(options.name))
    }
}

impl SimulationReport {
    /// The run's simulated reads as store accounting, for the metrics
    /// sinks that fold an [`IoStats`]: reads and reads per disk, no
    /// writes, no cache.
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            reads: self.reads_per_disk.iter().sum(),
            reads_per_disk: self.reads_per_disk.clone(),
            ..IoStats::default()
        }
    }
}

/// The pages one run has decoded, by page: the access method its
/// deliveries and its WOPTSS oracles read through.
///
/// The tree is borrowed for the whole run and its pages are immutable
/// meanwhile, so an entry never goes stale. A page is read from the
/// underlying access method on its first visit only; the table holds
/// at most the distinct pages the run visited (node handles, the nodes
/// shared with any decoded-node cache) and goes with the run.
struct PageTable<'t, A: ?Sized> {
    am: &'t A,
    nodes: Mutex<HashMap<PageId, IndexNode, PageIdHashBuilder>>,
}

impl<'t, A: AccessMethod + ?Sized> PageTable<'t, A> {
    fn new(am: &'t A) -> Self {
        Self {
            am,
            nodes: Mutex::default(),
        }
    }

    /// `page`'s node, decoded on its first visit.
    fn node(
        am: &A,
        nodes: &mut HashMap<PageId, IndexNode, PageIdHashBuilder>,
        page: PageId,
    ) -> Result<IndexNode, QueryError> {
        if let Some(node) = nodes.get(&page) {
            return Ok(node.clone());
        }
        let node = am.read_index_node(page)?;
        nodes.insert(page, node.clone());
        Ok(node)
    }

    /// [`AccessMethod::read_index_node`] through the table, without the
    /// lock the shared path takes (the run owns the table).
    fn read(&mut self, page: PageId) -> Result<IndexNode, QueryError> {
        let nodes = self.nodes.get_mut().unwrap_or_else(PoisonError::into_inner);
        Self::node(self.am, nodes, page)
    }
}

impl<A: AccessMethod + ?Sized> AccessMethod for PageTable<'_, A> {
    fn root_page(&self) -> PageId {
        self.am.root_page()
    }

    fn num_disks(&self) -> u32 {
        self.am.num_disks()
    }

    fn read_index_node(&self, page: PageId) -> Result<IndexNode, QueryError> {
        let mut nodes = self.nodes.lock().unwrap_or_else(PoisonError::into_inner);
        Self::node(self.am, &mut nodes, page)
    }

    fn placement(&self, page: PageId) -> Result<Placement, QueryError> {
        self.am.placement(page)
    }
}

/// Everything one simulation run owns: the modelled array, the event
/// queue, the sessions of the queries in flight and the run's tallies.
struct Run<'a, 'o, A: AccessMethod + ?Sized> {
    pages: PageTable<'a, A>,
    params: &'a SystemParams,
    workload: &'a Workload,
    algo: AlgoSource<'o>,
    /// The working memory and fetch buffer a completed session hands to
    /// the next query's.
    scratch: QueryScratch,
    rng: sqda_geom::rng::Rng,
    disks: Vec<Disk>,
    bus: Bus,
    cpus: Vec<Cpu>,
    events: EventQueue<Event>,
    /// The session of every query in flight, by workload index: `None`
    /// before it arrives and after it completes or aborts.
    sessions: Vec<Option<Session<Box<dyn SimilaritySearch>>>>,
    /// The pages of the batch being issued (one buffer for every query).
    batch: Vec<PageId>,
    nar: Narrator<'a>,
    faulted: bool,
    retry: RetryPolicy,
    degraded_reads: u64,
    read_retries: u64,
    reads_per_disk: Vec<u64>,
    failures: Vec<(u32, QueryError)>,
    /// Response time of every completed query, in completion order (the
    /// order the summary's running moments fold them in).
    response_times: Vec<f64>,
    /// Response time of every completed query, by workload index.
    responses: Vec<Option<f64>>,
    total_nodes: u64,
    makespan: SimTime,
}

/// Queues one step of query `q` on the CPU that frees up first and
/// schedules its completion; `submit` says what the step costs.
fn charge_cpu(
    cpus: &mut [Cpu],
    events: &mut EventQueue<Event>,
    q: usize,
    now: SimTime,
    submit: impl FnOnce(&mut Cpu) -> (SimTime, SimTime),
) -> CpuCharge {
    let c = least_busy_cpu(cpus);
    let (done, queue) = submit(&mut cpus[c]);
    events.schedule(done, Event::CpuDone { q });
    CpuCharge {
        cpu: c as u16,
        queue_ns: queue.as_nanos(),
        exec_ns: (done - now - queue).as_nanos(),
    }
}

impl<A: AccessMethod + ?Sized> Run<'_, '_, A> {
    /// Query `q` enters the system at `now`. Per the paper it does so
    /// immediately: it pays the fixed startup cost on the CPU, then
    /// issues its first request (the root page). Its algorithm is built
    /// here, outside simulated time — oracle preparation (WOPTSS)
    /// included — over the run's scratch.
    fn arrive(&mut self, now: SimTime, q: usize) -> Result<(), QueryError> {
        let wq = &self.workload.queries[q];
        let algo = match &mut self.algo {
            AlgoSource::Kind(kind) => {
                kind.build_with(&self.pages, wq.point.clone(), wq.k, &mut self.scratch)?
            }
            AlgoSource::Factory(factory) => factory(q, wq.point.clone(), wq.k),
        };
        self.scratch.batch.clear();
        let fetched = std::mem::take(&mut self.scratch.batch);
        let session = self.sessions[q].insert(Session::new(algo, q as u32, fetched));
        session.arrive(&mut self.nar);
        let startup = self.params.query_startup();
        let charge = charge_cpu(&mut self.cpus, &mut self.events, q, now, |cpu| {
            cpu.submit_duration_detailed(now, startup)
        });
        session.cpu_slice(&mut self.nar, charge, 0);
        Ok(())
    }

    /// Processes one popped event at its time `now`. Work still in
    /// flight for a query that already aborted finds no session: a page
    /// that was read is dropped instead of crossing the bus.
    fn step(&mut self, now: SimTime, event: Event) -> Result<(), QueryError> {
        match event {
            Event::CpuDone { q } => {
                let Some(session) = self.sessions[q].as_mut() else {
                    return Ok(());
                };
                let mut batch = std::mem::take(&mut self.batch);
                if session.next_batch(&mut self.nar, &mut batch)? {
                    for &page in &batch {
                        self.dispatch_read(now, q, page, 1)?;
                        if self.sessions[q].is_none() {
                            break;
                        }
                    }
                    self.batch = batch;
                } else {
                    let response = SimTime::from_nanos(session.complete(&mut self.nar));
                    self.response_times.push(response.as_secs_f64());
                    self.responses[q] = Some(response.as_secs_f64());
                    self.total_nodes += session.nodes_visited;
                    self.makespan = self.makespan.max(now);
                    session.recycle(&mut self.scratch);
                    self.sessions[q] = None;
                }
            }
            Event::DiskDone { q, page } => {
                let Some(session) = self.sessions[q].as_mut() else {
                    return Ok(());
                };
                let (done, queue) = self.bus.submit_detailed(now);
                self.events.schedule(done, Event::BusDone { q, page });
                let (queue_ns, transfer_ns) = (queue.as_nanos(), (done - now - queue).as_nanos());
                session.obs.bus_queue_ns += queue_ns;
                session.obs.bus_ns += transfer_ns;
                session.narrate(&mut self.nar, |query| ObsEvent::BusTransfer {
                    query,
                    queue_ns,
                    transfer_ns,
                });
            }
            Event::BusDone { q, page } => {
                let Some(session) = self.sessions[q].as_mut() else {
                    return Ok(());
                };
                let node = self.pages.read(page)?;
                let (cpus, events) = (&mut self.cpus, &mut self.events);
                session.deliver(&mut self.nar, page, node, |instructions, _| {
                    charge_cpu(cpus, events, q, now, |cpu| {
                        cpu.submit_detailed(now, instructions)
                    })
                })?;
            }
            Event::Retry { q, page, attempt } => {
                if self.sessions[q].is_some() {
                    self.dispatch_read(now, q, page, attempt)?;
                }
            }
        }
        Ok(())
    }

    /// Routes probe number `attempt` of `page` for query `q` under the
    /// current fault state — the first attempt and every retry alike:
    /// submits the read to the disk that serves it, or, with no live
    /// replica, schedules the next probe or aborts the query once the
    /// retry budget is spent (a typed per-query failure instead of
    /// probing, and hence hanging, forever).
    fn dispatch_read(
        &mut self,
        now: SimTime,
        q: usize,
        page: PageId,
        attempt: u32,
    ) -> Result<(), QueryError> {
        let placement = self.pages.placement(page)?;
        let primary = placement.disk.index();
        let mirrored = self.params.mirrored_reads;
        let Some(session) = self.sessions[q].as_mut() else {
            return Ok(());
        };
        let disk = match route_read(primary, now, &self.disks, mirrored, self.faulted) {
            Route::Serve(disk) => disk,
            Route::Degraded(replica) => {
                self.degraded_reads += 1;
                session.narrate(&mut self.nar, |query| ObsEvent::DegradedRead {
                    query,
                    disk: primary as u16,
                    replica: replica as u16,
                });
                replica
            }
            Route::Unavailable => {
                self.read_retries += 1;
                session.narrate(&mut self.nar, |query| ObsEvent::ReadRetry {
                    query,
                    disk: primary as u16,
                    attempt,
                });
                if attempt >= self.retry.max_attempts {
                    session.abort(&mut self.nar, primary as u16, attempt);
                    session.recycle(&mut self.scratch);
                    self.sessions[q] = None;
                    self.makespan = self.makespan.max(now);
                    self.failures.push((
                        q as u32,
                        QueryError::Unavailable {
                            page,
                            disk: primary as u32,
                            attempts: attempt,
                        },
                    ));
                } else {
                    let next = Event::Retry {
                        q,
                        page,
                        attempt: attempt + 1,
                    };
                    self.events.schedule(now + self.retry.backoff, next);
                }
                return Ok(());
            }
        };
        self.reads_per_disk[primary] += 1;
        let detail = self.disks[disk].submit_detailed(now, placement.cylinder, &mut self.rng);
        self.events
            .schedule(detail.completion, Event::DiskDone { q, page });
        let read = DiskRead {
            disk: disk as u16,
            cylinder: placement.cylinder,
            queue_ns: detail.queue.as_nanos(),
            seek_ns: detail.seek.as_nanos(),
            rotation_ns: detail.rotation.as_nanos(),
            transfer_ns: detail.transfer.as_nanos(),
            queue_depth: detail.queue_depth,
        };
        session.disk_read(&mut self.nar, page, read);
        Ok(())
    }

    /// Folds the finished run into its report.
    fn report(mut self, algorithm: &'static str) -> SimulationReport {
        debug_assert!(
            self.sessions.iter().all(Option::is_none),
            "all queries must complete or abort"
        );
        let responses: Vec<f64> = self.responses.into_iter().flatten().collect();
        let completed = responses.len();
        let horizon = self.makespan;
        let summary = MetricSummary::from_samples(&self.response_times);
        self.response_times.sort_by(f64::total_cmp);
        let p95_response_s = nearest_rank(&self.response_times, 0.95);
        let disk_busy: f64 = self.disks.iter().map(|d| d.utilization(horizon)).sum();
        let cpu_busy: f64 = self.cpus.iter().map(|c| c.utilization(horizon)).sum();
        SimulationReport {
            algorithm,
            completed,
            mean_response_s: summary.mean,
            std_response_s: summary.std_dev,
            max_response_s: summary.max,
            p95_response_s,
            mean_nodes_per_query: per(self.total_nodes as f64, completed),
            reads_per_disk: self.reads_per_disk,
            mean_disk_utilization: per(disk_busy, self.disks.len()),
            bus_utilization: self.bus.utilization(horizon),
            cpu_utilization: per(cpu_busy, self.cpus.len()),
            makespan_s: horizon.as_secs_f64(),
            failed: self.failures.len(),
            degraded_reads: self.degraded_reads,
            read_retries: self.read_retries,
            failures: self.failures,
            responses,
        }
    }
}

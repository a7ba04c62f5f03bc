//! The per-query session core all three executors run.
//!
//! A [`Session`] is one query's whole lifecycle around its algorithm
//! state machine: take the pending step and issue its batch
//! ([`Session::next_batch`]), hand fetched nodes back and run the
//! algorithm on the last one ([`Session::deliver`]), finish
//! ([`Session::complete`]) or give up ([`Session::abort`]). It counts
//! nodes, batches and CPU instructions, accumulates the response-time
//! components, and narrates every step through a [`Narrator`] — the one
//! place executor events are built and fanned out to their sinks.
//!
//! What is left to an executor is scheduling: where a page comes from
//! and what time it is. The logical executor reads pages on the spot,
//! the simulator routes them through its disk/bus/CPU models
//! ([`route_read`], [`mirror_partner`]) on a virtual clock, and the
//! real-clock engine submits them to an I/O backend on the wall clock.

use super::clock::EngineClock;
use crate::access::IndexNode;
use crate::algo::{AlgoProgress, Neighbor, SimilaritySearch, Step};
use crate::error::QueryError;
use sqda_obs::{Event as ObsEvent, Recorder};
use sqda_simkernel::{Cpu, Disk, SimTime};
use sqda_storage::PageId;
use std::collections::HashMap;
use std::ops::DerefMut;

/// The disk holding the replica of `disk`'s pages under shadowed
/// (mirrored) operation, or `None` if the disk is unpaired.
///
/// Disks are shadowed in pairs `(d, d + n/2)` for `d < n/2`; the pairing
/// is an involution, so a read is only ever redirected to the one disk
/// that actually holds the replica. With an odd array the last disk has
/// no partner and always serves its own reads. (The old `(d + n/2) mod
/// n` rule was not an involution for odd `n` and could send a read to a
/// disk without the page.)
pub fn mirror_partner(disk: usize, num_disks: usize) -> Option<usize> {
    let half = num_disks / 2;
    if disk < half {
        Some(disk + half)
    } else if disk < 2 * half {
        Some(disk - half)
    } else {
        None
    }
}

/// Index of the CPU that frees up first (least-loaded dispatch).
pub(crate) fn least_busy_cpu(cpus: &[Cpu]) -> usize {
    cpus.iter()
        .enumerate()
        .min_by_key(|(_, c)| c.busy_until())
        .map(|(i, _)| i)
        .expect("at least one CPU")
}

/// Where a page read should be served under the current fault state.
pub(crate) enum Route {
    /// Serve from this disk (the healthy path; may already be the
    /// mirror partner under the earliest-free-replica rule).
    Serve(usize),
    /// The primary is failed; this disk, its shadow replica, serves the
    /// read.
    Degraded(usize),
    /// No live replica exists right now.
    Unavailable,
}

/// Picks the disk to serve a read of a page placed on `primary`,
/// honouring fail-stop state when `faulted`. The fault-free branch is
/// the pre-fault routing verbatim, which is what keeps empty-plan runs
/// byte-identical.
pub(crate) fn route_read(
    primary: usize,
    now: SimTime,
    disks: &[Disk],
    mirrored: bool,
    faulted: bool,
) -> Route {
    let partner = mirror_partner(primary, disks.len()).filter(|_| mirrored);
    // Shadowed disks, both replicas alive: serve the read from
    // whichever frees up first.
    let earliest_free = |p: usize| {
        if disks[p].busy_until() < disks[primary].busy_until() {
            p
        } else {
            primary
        }
    };
    if !faulted {
        return Route::Serve(partner.map_or(primary, earliest_free));
    }
    let live_partner = partner.filter(|&p| !disks[p].is_failed(now));
    match (!disks[primary].is_failed(now), live_partner) {
        (true, Some(p)) => Route::Serve(earliest_free(p)),
        (true, None) => Route::Serve(primary),
        (false, Some(replica)) => Route::Degraded(replica),
        (false, None) => Route::Unavailable,
    }
}

/// `total / n`, or 0 when there is nothing to average over.
pub(crate) fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Decrements a session's outstanding-page count on a delivery.
///
/// A duplicate or spurious completion used to wrap the counter around
/// in release builds (the guarding `debug_assert` compiled out),
/// leaving a query that never finishes and a silently wrong report;
/// it now surfaces as a typed invariant error.
pub(crate) fn settle_outstanding(outstanding: usize, q: usize) -> Result<usize, QueryError> {
    outstanding.checked_sub(1).ok_or_else(|| {
        QueryError::Invariant(format!(
            "spurious BusDone for query {q}: no outstanding pages in flight"
        ))
    })
}

/// The outcome of one executed query.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// The k answers, sorted by increasing distance.
    pub results: Vec<Neighbor>,
    /// Total nodes (pages) fetched, including the root.
    pub nodes_visited: u64,
    /// Number of fetch batches (round trips to the array).
    pub batches: u64,
    /// Largest single batch (peak intra-query parallelism demand).
    pub max_batch: usize,
    /// CPU instructions accumulated under the paper's cost model.
    pub cpu_instructions: u64,
}

/// Response-time component accumulators of one session — the fields of
/// its `query_complete` event. All scalars.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SessionObs {
    pub(crate) disk_queue_ns: u64,
    pub(crate) seek_ns: u64,
    pub(crate) rotation_ns: u64,
    pub(crate) transfer_ns: u64,
    pub(crate) bus_queue_ns: u64,
    pub(crate) bus_ns: u64,
    pub(crate) cpu_queue_ns: u64,
    pub(crate) cpu_ns: u64,
    pub(crate) batches: u32,
}

/// The one narration path. An event is built only while the executor's
/// one sink is on — the simulator's caller-supplied recorder, or the
/// real-clock engine's flight ring, which restamps it on its own clock —
/// and is stamped through the engine's clock under the query's id: the
/// workload index under the simulator, which is what the post-hoc
/// tooling joins on, the serving id
/// [`LiveTelemetry`](sqda_obs::LiveTelemetry) handed out under the real
/// engine. With the sink off a hook costs one check and nothing is
/// built.
pub(crate) struct Narrator<'a> {
    clock: &'a dyn EngineClock,
    recorder: Option<&'a mut dyn Recorder>,
    /// Tree level of every page seen so far (root = 0), extended as
    /// internal nodes are delivered; empty while levels are not tracked.
    levels: HashMap<PageId, u16>,
}

impl<'a> Narrator<'a> {
    /// A narrator over `clock` feeding `recorder` if it is given and
    /// enabled, and then tracking levels from `root`.
    pub(crate) fn new(
        clock: &'a dyn EngineClock,
        recorder: Option<&'a mut dyn Recorder>,
        root: PageId,
    ) -> Self {
        let mut nar = Self {
            clock,
            recorder: recorder.filter(|r| r.enabled()),
            levels: HashMap::new(),
        };
        if nar.on() {
            nar.track_levels(root);
        }
        nar
    }

    /// Whether the sink wants events.
    #[inline]
    pub(crate) fn on(&self) -> bool {
        self.recorder.is_some()
    }

    /// Maintains the page→level map even with the sink off (the
    /// EXPLAIN record reads it).
    pub(crate) fn track_levels(&mut self, root: PageId) {
        self.levels.insert(root, 0);
    }

    /// Tree level of `page` (0 for a page never seen below a delivered
    /// parent, or while not tracking).
    pub(crate) fn level(&self, page: PageId) -> u16 {
        self.levels.get(&page).copied().unwrap_or_default()
    }
}

/// How an executor charged one CPU step: on which processor, how long it
/// queued, how long it ran.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CpuCharge {
    pub(crate) cpu: u16,
    pub(crate) queue_ns: u64,
    pub(crate) exec_ns: u64,
}

/// One page read as its disk served it. A real disk does not tell seek
/// from rotation: the real-clock engine books the whole service as
/// transfer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DiskRead {
    pub(crate) disk: u16,
    pub(crate) cylinder: u32,
    pub(crate) queue_ns: u64,
    pub(crate) seek_ns: u64,
    pub(crate) rotation_ns: u64,
    pub(crate) transfer_ns: u64,
    pub(crate) queue_depth: u32,
}

/// One in-flight query. Times are nanoseconds of the executor's clock.
///
/// `A` is how the session holds its algorithm: borrowed
/// (`&mut dyn SimilaritySearch`) where the caller keeps it, as the
/// logical and real-clock executors do, or owned
/// (`Box<dyn SimilaritySearch>`) where the session lives and dies with
/// it, as the simulator's do.
pub(crate) struct Session<A> {
    algo: A,
    /// The id the narrated stream knows the query by.
    query: u32,
    arrival_ns: u64,
    outstanding: usize,
    fetched: Vec<(PageId, IndexNode)>,
    pending: Option<Step>,
    pub(crate) nodes_visited: u64,
    max_batch: usize,
    cpu_instructions: u64,
    pub(crate) obs: SessionObs,
}

impl<A> Session<A>
where
    A: DerefMut,
    A::Target: SimilaritySearch,
{
    /// A session for query `query`, staging fetched nodes in `fetched`
    /// (an empty buffer whose capacity is worth reusing).
    pub(crate) fn new(algo: A, query: u32, fetched: Vec<(PageId, IndexNode)>) -> Self {
        Self {
            algo,
            query,
            arrival_ns: 0,
            outstanding: 0,
            fetched,
            pending: None,
            nodes_visited: 0,
            max_batch: 0,
            cpu_instructions: 0,
            obs: SessionObs::default(),
        }
    }

    /// Sends the event `build` makes of the query's id to the sink, if
    /// it is on.
    #[inline]
    pub(crate) fn narrate(&self, nar: &mut Narrator<'_>, build: impl FnOnce(u32) -> ObsEvent) {
        if let Some(recorder) = nar.recorder.as_deref_mut() {
            recorder.record(nar.clock.now_ns(), build(self.query));
        }
    }

    /// The query enters the system now: narrates `query_arrive` and
    /// takes the algorithm's first step (the root page).
    pub(crate) fn arrive(&mut self, nar: &mut Narrator<'_>) {
        self.arrival_ns = nar.clock.now_ns();
        self.narrate(nar, |query| ObsEvent::QueryArrive { query });
        self.pending = Some(self.algo.start());
    }

    /// Takes the pending step: `true` means `batch` now holds the pages
    /// to fetch, already counted and narrated as `batch_issued` (the
    /// algorithm has its own list back to build the next step in);
    /// `false` means the algorithm is done and the session wants
    /// [`Session::complete`].
    ///
    /// # Errors
    ///
    /// [`QueryError::Invariant`] if no step is pending or the algorithm
    /// asked for an empty batch (which would never complete).
    pub(crate) fn next_batch(
        &mut self,
        nar: &mut Narrator<'_>,
        batch: &mut Vec<PageId>,
    ) -> Result<bool, QueryError> {
        let q = self.query;
        let step = self
            .pending
            .take()
            .ok_or_else(|| QueryError::Invariant(format!("query {q} has no pending step")))?;
        let pages = match step {
            Step::Fetch(pages) => pages,
            Step::Done => return Ok(false),
            Step::Invalid(msg) => return Err(QueryError::Invariant(msg)),
        };
        if pages.is_empty() {
            return Err(QueryError::Invariant(format!(
                "query {q} ({}) issued an empty fetch batch",
                self.algo.name()
            )));
        }
        self.outstanding = pages.len();
        self.nodes_visited += pages.len() as u64;
        self.max_batch = self.max_batch.max(pages.len());
        self.obs.batches += 1;
        if nar.on() {
            // A batch can mix levels (CRSS pulls pages from several runs
            // at once): record the shallowest and deepest, not
            // pages[0]'s, which mislabelled mixed batches.
            let (level, level_max) = pages.iter().fold((u16::MAX, 0), |(lo, hi), &page| {
                let l = nar.level(page);
                (lo.min(l), hi.max(l))
            });
            let size = pages.len() as u32;
            self.narrate(nar, |query| ObsEvent::BatchIssued {
                query,
                level,
                level_max,
                size,
            });
        }
        batch.clear();
        batch.extend_from_slice(&pages);
        if let Some(memory) = self.algo.working_memory() {
            memory.pages = pages;
        }
        Ok(true)
    }

    /// Books one page read against the session and narrates it as
    /// `disk_service`.
    pub(crate) fn disk_read(&mut self, nar: &mut Narrator<'_>, page: PageId, read: DiskRead) {
        self.obs.disk_queue_ns += read.queue_ns;
        self.obs.seek_ns += read.seek_ns;
        self.obs.rotation_ns += read.rotation_ns;
        self.obs.transfer_ns += read.transfer_ns;
        let level = if nar.on() { nar.level(page) } else { 0 };
        self.narrate(nar, |query| ObsEvent::DiskService {
            query,
            disk: read.disk,
            cylinder: read.cylinder,
            level,
            queue_ns: read.queue_ns,
            seek_ns: read.seek_ns,
            rotation_ns: read.rotation_ns,
            transfer_ns: read.transfer_ns,
            queue_depth: read.queue_depth,
        });
    }

    /// Tells the algorithm how many pages the next round can read in
    /// parallel ([`SimilaritySearch::set_width`]); call it before the
    /// round's nodes are delivered.
    pub(crate) fn set_width(&mut self, width: usize) {
        self.algo.set_width(width);
    }

    /// Hands one fetched node to the session, in request order. On the
    /// batch's last page the algorithm runs over the whole batch, its
    /// next step becomes pending, and `charge` — given the instructions
    /// the batch cost under the paper's model and the nanoseconds the
    /// engine clock moved meanwhile — says how the executor bills that
    /// CPU step, which is narrated as `cpu_slice` (and `crss_state`).
    ///
    /// # Errors
    ///
    /// [`QueryError::Invariant`] on a delivery no batch is waiting for.
    pub(crate) fn deliver(
        &mut self,
        nar: &mut Narrator<'_>,
        page: PageId,
        node: IndexNode,
        charge: impl FnOnce(u64, u64) -> CpuCharge,
    ) -> Result<(), QueryError> {
        if !nar.levels.is_empty() {
            if let IndexNode::Internal(block) = &node {
                let child_level = nar.level(page) + 1;
                for child in block.children() {
                    nar.levels.insert(child, child_level);
                }
            }
        }
        self.fetched.push((page, node));
        self.outstanding = settle_outstanding(self.outstanding, self.query as usize)?;
        if self.outstanding > 0 {
            return Ok(());
        }
        // The algorithm drains `fetched` in place; its capacity is
        // reused for the session's next batch.
        let started_ns = nar.clock.now_ns();
        let result = self.algo.on_fetched(&mut self.fetched);
        let elapsed_ns = nar.clock.now_ns().saturating_sub(started_ns);
        debug_assert!(self.fetched.is_empty(), "algorithms drain the batch");
        self.fetched.clear();
        self.pending = Some(result.next);
        self.cpu_instructions += result.cpu_instructions;
        let charge = charge(result.cpu_instructions, elapsed_ns);
        self.cpu_slice(nar, charge, result.cpu_instructions);
        if nar.on() {
            if let Some(p) = self.algo.progress() {
                self.narrate(nar, |query| ObsEvent::CrssState {
                    query,
                    d_th_sq: p.d_th_sq,
                    stack_runs: p.stack_runs,
                    stack_candidates: p.stack_candidates,
                });
            }
        }
        Ok(())
    }

    /// Books one CPU step against the session and narrates it as
    /// `cpu_slice` (`instructions` 0: the fixed-duration startup step).
    pub(crate) fn cpu_slice(
        &mut self,
        nar: &mut Narrator<'_>,
        charge: CpuCharge,
        instructions: u64,
    ) {
        self.obs.cpu_queue_ns += charge.queue_ns;
        self.obs.cpu_ns += charge.exec_ns;
        self.narrate(nar, |query| ObsEvent::CpuSlice {
            query,
            cpu: charge.cpu,
            queue_ns: charge.queue_ns,
            exec_ns: charge.exec_ns,
            instructions,
        });
    }

    /// The algorithm is done: fixes the response time, narrates
    /// `query_complete` with the whole breakdown and returns the
    /// response time.
    pub(crate) fn complete(&mut self, nar: &mut Narrator<'_>) -> u64 {
        let response_ns = nar.clock.now_ns().saturating_sub(self.arrival_ns);
        let (nodes, obs) = (self.nodes_visited, self.obs);
        self.narrate(nar, |query| ObsEvent::QueryComplete {
            query,
            response_ns,
            nodes,
            batches: obs.batches,
            disk_queue_ns: obs.disk_queue_ns,
            seek_ns: obs.seek_ns,
            rotation_ns: obs.rotation_ns,
            transfer_ns: obs.transfer_ns,
            bus_queue_ns: obs.bus_queue_ns,
            bus_ns: obs.bus_ns,
            cpu_queue_ns: obs.cpu_queue_ns,
            cpu_ns: obs.cpu_ns,
        });
        response_ns
    }

    /// Hands the session's (drained) fetch buffer and the algorithm's
    /// working memory back to `scratch`, whence the next session takes
    /// them; the algorithm is spent from then on.
    pub(crate) fn recycle(&mut self, scratch: &mut crate::QueryScratch) {
        if let Some(memory) = self.algo.working_memory() {
            scratch.algo = std::mem::take(memory);
        }
        scratch.batch = std::mem::take(&mut self.fetched);
    }

    /// What a completed session did; its buffers are
    /// [recycled](Session::recycle) into `scratch`.
    pub(crate) fn finish(mut self, scratch: &mut crate::QueryScratch) -> QueryRun {
        let results = self.algo.results();
        self.recycle(scratch);
        QueryRun {
            results,
            nodes_visited: self.nodes_visited,
            batches: self.obs.batches as u64,
            max_batch: self.max_batch,
            cpu_instructions: self.cpu_instructions,
        }
    }

    /// The query gives up with a typed error: narrates `query_abort`, so
    /// every `query_arrive` in a stream is closed by a completion or an
    /// abort. `disk` is the disk whose read the query gave up on. The
    /// scheduler drops the session's in-flight work from then on.
    pub(crate) fn abort(&self, nar: &mut Narrator<'_>, disk: u16, attempts: u32) {
        self.narrate(nar, |query| ObsEvent::QueryAbort {
            query,
            disk,
            attempts,
        });
    }

    /// The algorithm's telemetry after its last processed batch.
    pub(crate) fn progress(&self) -> Option<AlgoProgress> {
        self.algo.progress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settle_outstanding_counts_down() {
        assert!(matches!(settle_outstanding(3, 0), Ok(2)));
        assert!(matches!(settle_outstanding(1, 0), Ok(0)));
    }

    #[test]
    fn spurious_bus_done_is_a_typed_invariant_error() {
        // Regression: this used to be `outstanding -= 1`, which wraps
        // to usize::MAX in release builds and leaves the query spinning.
        let err = settle_outstanding(0, 7).unwrap_err();
        match err {
            QueryError::Invariant(msg) => {
                assert!(msg.contains("spurious BusDone"), "{msg}");
                assert!(msg.contains('7'), "{msg}");
            }
            other => panic!("expected Invariant, got {other:?}"),
        }
    }

    #[test]
    fn mirror_partner_pairs_and_involutes() {
        // Even array: perfect pairing, involution, no self-pairing.
        for n in [2usize, 4, 6, 10, 128] {
            for d in 0..n {
                let p = mirror_partner(d, n).expect("even arrays pair fully");
                assert_ne!(p, d, "n={n} d={d}");
                assert_eq!(mirror_partner(p, n), Some(d), "n={n} d={d}");
            }
        }
        // Odd array: the last disk is unpaired, the rest involute.
        for n in [3usize, 5, 7, 11] {
            assert_eq!(mirror_partner(n - 1, n), None, "n={n}");
            for d in 0..n - 1 {
                let p = mirror_partner(d, n).expect("non-last disks pair");
                assert_ne!(p, d, "n={n} d={d}");
                assert_eq!(mirror_partner(p, n), Some(d), "n={n} d={d}");
            }
        }
        // Degenerate single-disk array: nothing to mirror onto.
        assert_eq!(mirror_partner(0, 1), None);
    }
}

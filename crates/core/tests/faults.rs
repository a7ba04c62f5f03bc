//! Tests of fault injection and degraded-mode execution.
//!
//! The two load-bearing properties: an **empty plan changes nothing**
//! (same RNG stream, same report, same event bytes as the fault-free
//! path), and a **non-empty plan degrades service, never correctness**
//! — answers survive the loss of any mirrored disk, and a query that
//! cannot be answered terminates with a typed error instead of hanging.

use sqda_core::{
    mirror_partner, AccessMethod, AlgorithmKind, BatchResult, IndexNode, Neighbor, QueryError,
    RunOptions, SimilaritySearch, Simulation, Step, Workload, WorkloadQuery,
};
use sqda_geom::Point;
use sqda_obs::{events_to_jsonl, CollectingRecorder, Event};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_simkernel::{DiskParams, FaultPlan, RetryPolicy, SimTime, SystemParams};
use sqda_storage::{ArrayStore, PageId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Hand-written points over a 1-cylinder array: placement involves no
/// effective randomness, so with the zero-revolution disk below the
/// whole simulation is deterministic (no RNG draws at all).
fn deterministic_tree(num_disks: u32) -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::new(num_disks, 1, 0));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::new(2).with_max_entries(4),
        Box::new(ProximityIndex),
    )
    .unwrap();
    for i in 0..25u64 {
        let x = (i % 5) as f64;
        let y = (i / 5) as f64;
        tree.insert(Point::new(vec![x, y]), i).unwrap();
    }
    tree
}

fn deterministic_params(num_disks: u32) -> SystemParams {
    SystemParams {
        disk: DiskParams {
            num_cylinders: 1,
            revolution_time_s: 0.0,
            ..DiskParams::default()
        },
        ..SystemParams::with_disks(num_disks)
    }
}

fn mirrored_params(num_disks: u32) -> SystemParams {
    SystemParams {
        mirrored_reads: true,
        ..deterministic_params(num_disks)
    }
}

fn workload() -> Workload {
    Workload {
        queries: vec![
            WorkloadQuery {
                arrival: SimTime::ZERO,
                point: Point::new(vec![1.2, 1.1]),
                k: 3,
            },
            WorkloadQuery {
                arrival: SimTime::from_millis_f64(4.0),
                point: Point::new(vec![3.8, 2.9]),
                k: 2,
            },
        ],
    }
}

/// The RNG-stream parity pin: with the empty plan, a faulted run is
/// byte-identical to `run` — reports bit-equal, recorded event streams
/// byte-equal — under a stochastic (default-drive, multi-cylinder)
/// configuration where any extra or reordered RNG draw would diverge.
#[test]
fn empty_plan_is_byte_identical_to_fault_free() {
    let store = Arc::new(ArrayStore::new(6, 1449, 3));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::new(2).with_max_entries(8),
        Box::new(ProximityIndex),
    )
    .unwrap();
    for i in 0..200u64 {
        let x = (i % 20) as f64 + (i as f64) * 1e-3;
        let y = (i / 20) as f64;
        tree.insert(Point::new(vec![x, y]), i).unwrap();
    }
    let w = Workload {
        queries: (0..10)
            .map(|i| WorkloadQuery {
                arrival: SimTime::from_millis_f64(i as f64 * 2.0),
                point: Point::new(vec![(i % 7) as f64, (i % 5) as f64]),
                k: 4,
            })
            .collect(),
    };
    let sim = Simulation::new(&tree, SystemParams::with_disks(6)).unwrap();
    for kind in AlgorithmKind::ALL {
        let plain = sim.run(kind, &w, 9).unwrap();
        let no_faults = FaultPlan::none();
        let faulted = sim
            .run_with(&w, 9, RunOptions::kind(kind).faults(&no_faults))
            .unwrap();
        assert_eq!(plain.mean_response_s, faulted.mean_response_s, "{kind}");
        assert_eq!(plain.std_response_s, faulted.std_response_s, "{kind}");
        assert_eq!(plain.max_response_s, faulted.max_response_s, "{kind}");
        assert_eq!(plain.makespan_s, faulted.makespan_s, "{kind}");
        assert_eq!(plain.completed, faulted.completed, "{kind}");
        assert_eq!(faulted.failed, 0, "{kind}");
        assert_eq!(faulted.degraded_reads, 0, "{kind}");
        assert_eq!(faulted.read_retries, 0, "{kind}");
        assert!(faulted.failures.is_empty(), "{kind}");

        let mut rec_plain = CollectingRecorder::new();
        let mut rec_faulted = CollectingRecorder::new();
        sim.run_recorded(kind, &w, 9, &mut rec_plain).unwrap();
        let options = RunOptions::kind(kind).faults(&no_faults);
        sim.run_with(&w, 9, options.recorded(&mut rec_faulted))
            .unwrap();
        assert_eq!(
            events_to_jsonl(rec_plain.events()),
            events_to_jsonl(rec_faulted.events()),
            "{kind}: empty-plan event log diverged from fault-free"
        );
    }
}

/// A `SimilaritySearch` wrapper that stashes the final answers when the
/// inner algorithm reports `Done` — the simulated executor never reads
/// answers itself, so this is the seam for answer-identity assertions.
struct Spy {
    inner: Box<dyn SimilaritySearch>,
    query: usize,
    sink: Arc<Mutex<BTreeMap<usize, Vec<Neighbor>>>>,
}

impl SimilaritySearch for Spy {
    fn start(&mut self) -> Step {
        self.inner.start()
    }
    fn on_fetched(&mut self, nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult {
        let result = self.inner.on_fetched(nodes);
        if matches!(result.next, Step::Done) {
            self.sink
                .lock()
                .unwrap()
                .insert(self.query, self.inner.results());
        }
        result
    }
    fn results(&self) -> Vec<Neighbor> {
        self.inner.results()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Runs one algorithm over the workload with answers captured per query.
fn run_spied(
    tree: &RStarTree<ArrayStore>,
    params: SystemParams,
    kind: AlgorithmKind,
    w: &Workload,
    plan: &FaultPlan,
) -> (sqda_core::SimulationReport, BTreeMap<usize, Vec<Neighbor>>) {
    let sink: Arc<Mutex<BTreeMap<usize, Vec<Neighbor>>>> = Arc::default();
    let sim = Simulation::new(tree, params).unwrap();
    let factory_sink = Arc::clone(&sink);
    let mut factory = |query, point, k| -> Box<dyn SimilaritySearch> {
        Box::new(Spy {
            inner: kind.build(tree, point, k).unwrap(),
            query,
            sink: Arc::clone(&factory_sink),
        })
    };
    let options = RunOptions::factory(kind.name(), &mut factory).faults(plan);
    let report = sim.run_with(w, 5, options).unwrap();
    let answers = sink.lock().unwrap().clone();
    (report, answers)
}

/// Killing one disk of a shadowed pair must not change any k-NN answer:
/// the partner serves the failed disk's pages. Pinned for all four
/// algorithms against the fault-free answers.
#[test]
fn killing_a_mirrored_disk_preserves_answers() {
    let tree = deterministic_tree(4);
    let w = workload();
    // Fail the disk the root lives on — every query must cross it, so
    // the degraded path is exercised unconditionally.
    let root_disk = tree.placement(tree.root_page()).unwrap().disk.index() as u32;
    assert!(
        mirror_partner(root_disk as usize, 4).is_some(),
        "even array: every disk has a shadow partner"
    );
    let plan = FaultPlan::none().fail_stop(root_disk, SimTime::ZERO);
    for kind in AlgorithmKind::ALL {
        let (baseline, healthy) =
            run_spied(&tree, mirrored_params(4), kind, &w, &FaultPlan::none());
        let (degraded, survived) = run_spied(&tree, mirrored_params(4), kind, &w, &plan);
        assert_eq!(baseline.failed, 0, "{kind}");
        assert_eq!(degraded.failed, 0, "{kind}: mirrored loss must not abort");
        assert_eq!(degraded.completed, w.queries.len(), "{kind}");
        assert!(degraded.degraded_reads > 0, "{kind}: root reads redirect");
        // Reads are counted on the disk each page is placed on, wherever
        // the read was served: the same pages, the same counts.
        assert_eq!(
            degraded.reads_per_disk, baseline.reads_per_disk,
            "{kind}: simulated reads by placement"
        );
        assert_eq!(healthy.len(), survived.len(), "{kind}");
        for (q, want) in &healthy {
            let got = &survived[q];
            assert_eq!(want.len(), got.len(), "{kind} query {q}");
            for (a, b) in want.iter().zip(got) {
                assert_eq!(a.object, b.object, "{kind} query {q}");
                assert_eq!(a.dist_sq, b.dist_sq, "{kind} query {q}");
            }
        }
    }
}

/// Killing the unpaired disk of an odd array makes its pages truly
/// unavailable: the touched queries abort with
/// [`QueryError::Unavailable`] after the bounded retry budget — the
/// run itself terminates and reports them, rather than hanging.
#[test]
fn killing_the_unpaired_disk_aborts_with_typed_error() {
    let tree = deterministic_tree(5);
    let unpaired = 4u32;
    assert_eq!(mirror_partner(unpaired as usize, 5), None);
    // k = 25 forces every leaf into every query, so pages on the dead
    // disk are unavoidable (the tree spreads its ~9 pages over 5 disks).
    let w = Workload {
        queries: vec![WorkloadQuery {
            arrival: SimTime::ZERO,
            point: Point::new(vec![2.0, 2.0]),
            k: 25,
        }],
    };
    let plan = FaultPlan::none().fail_stop(unpaired, SimTime::ZERO);
    for kind in AlgorithmKind::ALL {
        let sim = Simulation::new(&tree, mirrored_params(5)).unwrap();
        let report = sim
            .run_with(&w, 5, RunOptions::kind(kind).faults(&plan))
            .unwrap();
        assert_eq!(report.failed, 1, "{kind}: the query must abort");
        assert_eq!(report.completed, 0, "{kind}");
        assert!(report.read_retries > 0, "{kind}");
        let (q, err) = &report.failures[0];
        assert_eq!(*q, 0, "{kind}");
        match err {
            QueryError::Unavailable { disk, attempts, .. } => {
                assert_eq!(*disk, unpaired, "{kind}");
                assert_eq!(
                    *attempts,
                    RetryPolicy::default().max_attempts,
                    "{kind}: aborts only after the full probe budget"
                );
            }
            other => panic!("{kind}: expected Unavailable, got {other:?}"),
        }
    }
}

/// A transient outage shorter than the retry budget is survived: the
/// probe fails, the bounded retry re-probes after backoff, the disk is
/// back, and the query completes with the right answers.
#[test]
fn transient_outage_is_survived_by_retries() {
    let tree = deterministic_tree(2);
    let root_disk = tree.placement(tree.root_page()).unwrap().disk.index() as u32;
    let w = workload();
    // No mirroring: the root read has no replica during the outage, so
    // it must go through the retry path rather than degraded reads.
    let plan = FaultPlan::none()
        .transient_outage(root_disk, SimTime::ZERO, SimTime::from_millis_f64(2.0))
        .with_retry(RetryPolicy {
            max_attempts: 10,
            backoff: SimTime::from_millis_f64(1.0),
        });
    let (baseline, healthy) = run_spied(
        &tree,
        deterministic_params(2),
        AlgorithmKind::Crss,
        &w,
        &FaultPlan::none(),
    );
    let (report, answers) = run_spied(
        &tree,
        deterministic_params(2),
        AlgorithmKind::Crss,
        &w,
        &plan,
    );
    assert_eq!(baseline.failed, 0);
    assert_eq!(report.failed, 0, "outage ends before the budget does");
    assert_eq!(report.completed, w.queries.len());
    assert!(report.read_retries > 0, "the outage must be observed");
    assert_eq!(report.degraded_reads, 0, "no replica to degrade onto");
    assert!(
        report.makespan_s > baseline.makespan_s,
        "waiting out the outage costs time"
    );
    for (q, want) in &healthy {
        assert_eq!(want, &answers[q], "query {q} answers changed");
    }
}

/// Faulted runs narrate first-class events: the fail-stop span, every
/// degraded read, and per-query aborts all appear in the stream.
#[test]
fn fault_events_are_recorded() {
    let tree = deterministic_tree(4);
    let w = workload();
    let root_disk = tree.placement(tree.root_page()).unwrap().disk.index() as u32;
    let plan = FaultPlan::none().fail_stop(root_disk, SimTime::ZERO);
    let sim = Simulation::new(&tree, mirrored_params(4)).unwrap();
    let mut rec = CollectingRecorder::new();
    let options = RunOptions::kind(AlgorithmKind::Bbss).faults(&plan);
    let report = sim.run_with(&w, 5, options.recorded(&mut rec)).unwrap();
    let failed_events: Vec<_> = rec
        .events()
        .iter()
        .filter_map(|&(ts, e)| match e {
            Event::DiskFailed { disk } => Some((ts, disk)),
            _ => None,
        })
        .collect();
    assert_eq!(failed_events, vec![(0, root_disk as u16)]);
    let degraded = rec
        .events()
        .iter()
        .filter(|(_, e)| {
            matches!(e, Event::DegradedRead { disk, replica, .. }
                if *disk as u32 == root_disk
                && mirror_partner(root_disk as usize, 4) == Some(*replica as usize))
        })
        .count() as u64;
    assert_eq!(degraded, report.degraded_reads);
    assert!(degraded > 0);
}

/// A two-step algorithm whose second batch mixes tree levels (a child
/// page and the root): regression for the `batch_issued` label, which
/// used to stamp the whole batch with `pages[0]`'s level.
struct MixedFetcher {
    root: PageId,
    rounds: u8,
}

impl SimilaritySearch for MixedFetcher {
    fn start(&mut self) -> Step {
        Step::Fetch(vec![self.root])
    }
    fn on_fetched(&mut self, nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult {
        let fetched: Vec<(PageId, IndexNode)> = std::mem::take(nodes);
        self.rounds += 1;
        let next = if self.rounds == 1 {
            let child = match &fetched[0].1 {
                IndexNode::Internal(block) => block.child(0),
                IndexNode::Leaf(_) => panic!("root of a 25-point tree is internal"),
            };
            // Deeper page FIRST: the old label took pages[0]'s level and
            // would report this batch as level 1 with no trace of the
            // root's level 0.
            Step::Fetch(vec![child, self.root])
        } else {
            Step::Done
        };
        BatchResult {
            next,
            cpu_instructions: 100,
        }
    }
    fn results(&self) -> Vec<Neighbor> {
        Vec::new()
    }
    fn name(&self) -> &'static str {
        "mixed-fetcher"
    }
}

#[test]
fn mixed_level_batches_record_min_and_max_levels() {
    let tree = deterministic_tree(2);
    let root = tree.root_page();
    let w = Workload {
        queries: vec![WorkloadQuery {
            arrival: SimTime::ZERO,
            point: Point::new(vec![0.0, 0.0]),
            k: 1,
        }],
    };
    let sim = Simulation::new(&tree, deterministic_params(2)).unwrap();
    let mut rec = CollectingRecorder::new();
    let mut factory = |_q, _point, _k| -> Box<dyn SimilaritySearch> {
        Box::new(MixedFetcher { root, rounds: 0 })
    };
    let options = RunOptions::factory("mixed-fetcher", &mut factory);
    sim.run_with(&w, 1, options.recorded(&mut rec)).unwrap();
    let batches: Vec<(u16, u16, u32)> = rec
        .events()
        .iter()
        .filter_map(|&(_, e)| match e {
            Event::BatchIssued {
                level,
                level_max,
                size,
                ..
            } => Some((level, level_max, size)),
            _ => None,
        })
        .collect();
    assert_eq!(
        batches,
        vec![
            // Root batch: uniform level 0.
            (0, 0, 1),
            // Mixed batch: shallowest 0 (the root), deepest 1 (a child)
            // — regardless of request order.
            (0, 1, 2),
        ]
    );
}

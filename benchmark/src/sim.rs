//! `sim_multiuser`: the paper's own experiment, in process. A
//! california-like place set of the paper's cardinality, indexed by
//! one-at-a-time insertion (the paper's construction) on ten simulated
//! disks with 1 KiB pages, then queried by BBSS, FPSS, CRSS and WOPTSS at
//! two Poisson arrival rates through the event-driven simulator.
//!
//! Its users are people reproducing figures, and its cost is host time
//! per simulated event — a third executor next to the two the serve
//! workloads reach. It is also the open-loop view: arrivals follow their
//! schedule whatever the array's backlog. The simulated statistics must
//! repeat bit for bit while host speed stays flat or improves.

use crate::proc::{vm_hwm_mb, Res};
use crate::stats::median;
use crate::{rng::SplitMix64, Ctx, RunResult};
use sqda_core::exec::run_query_with;
use sqda_core::{
    AlgorithmKind, QueryScratch, Simulation, SimulationReport, Workload, WorkloadQuery,
};
use sqda_geom::Point;
use sqda_obs::{Event, Recorder};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_simkernel::{SimTime, SystemParams};
use sqda_storage::ArrayStore;
use std::sync::Arc;
use std::time::Instant;

const POINTS: usize = 62_173;
/// The paper has one place set; so has the workload. `--seed` draws the
/// queries and their arrival times, not the data.
const DATASET_SEED: u64 = 1998;
const DISKS: u32 = 10;
const PAGE_SIZE: usize = 1024;
const K: usize = 10;
const LAMBDAS: [f64; 2] = [5.0, 10.0];
/// Queries per simulation run; eight runs (4 algorithms × 2 rates) make
/// one repetition.
const QUERIES: usize = 4_000;
const SETUPS: usize = 3;
const MIN_REPS: usize = 3;
const ORACLE_QUERIES: usize = 50;

type Tree = RStarTree<ArrayStore>;

/// Dataset → incrementally built tree. `Simulation::new` borrows the
/// tree, so it is made (and timed) by the caller.
fn build_tree() -> Res<(Tree, Vec<Point>)> {
    let dataset = sqda_datasets::california_like(POINTS, DATASET_SEED);
    let store = Arc::new(ArrayStore::with_page_size(
        DISKS,
        1449,
        PAGE_SIZE,
        DATASET_SEED,
    ));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::with_page_size(2, PAGE_SIZE),
        Box::new(ProximityIndex),
    )?;
    for (i, p) in dataset.points.iter().enumerate() {
        tree.insert(p.clone(), i as u64)?;
    }
    Ok((tree, dataset.points))
}

/// `QUERIES` data points as queries (queries follow the data), arriving
/// as a Poisson process of rate `lambda`; both drawn from the driver's
/// own stream.
fn workload(points: &[Point], lambda: f64, seed: u64) -> Workload {
    let mut pick = SplitMix64::new(seed);
    let mut gaps = SplitMix64::new(seed ^ lambda.to_bits());
    let mut now = 0.0;
    let queries = (0..QUERIES)
        .map(|_| {
            now += gaps.exponential(lambda);
            WorkloadQuery {
                arrival: SimTime::from_secs_f64(now),
                point: points[pick.below(points.len())].clone(),
                k: K,
            }
        })
        .collect();
    Workload { queries }
}

/// The simulated statistics of one run that must repeat exactly.
fn fingerprint(r: &SimulationReport) -> [u64; 6] {
    [
        r.mean_response_s.to_bits(),
        r.p95_response_s.to_bits(),
        r.mean_nodes_per_query.to_bits(),
        r.mean_disk_utilization.to_bits(),
        r.makespan_s.to_bits(),
        r.completed as u64,
    ]
}

struct Timed {
    report: SimulationReport,
    host_s: f64,
}

/// One repetition: every algorithm at every rate, each run timed.
fn repetition(sim: &Simulation<'_, Tree>, workloads: &[Workload], seed: u64) -> Res<Vec<Timed>> {
    let mut runs = Vec::new();
    for kind in AlgorithmKind::ALL {
        for workload in workloads {
            let started = Instant::now();
            let report = sim.run(kind, workload, seed)?;
            runs.push(Timed {
                host_s: started.elapsed().as_secs_f64(),
                report,
            });
        }
    }
    Ok(runs)
}

fn check_runs(result: &mut RunResult, rep: usize, runs: &[Timed], first: &[Timed]) {
    for (i, run) in runs.iter().enumerate() {
        result.attempted += 1;
        let r = &run.report;
        if r.completed != QUERIES || r.failed > 0 {
            result.fail(format!(
                "repetition {rep}, {}: completed {} of {QUERIES}, {} failed",
                r.algorithm, r.completed, r.failed
            ));
        } else if fingerprint(r) != fingerprint(&first[i].report) {
            result.fail(format!(
                "repetition {rep}, {}: simulated statistics differ from repetition 0",
                r.algorithm
            ));
        }
    }
}

/// The four algorithms must return the same neighbours.
fn check_answers(result: &mut RunResult, tree: &Tree, workload: &Workload) -> Res<()> {
    let mut scratch = QueryScratch::new();
    let stride = (workload.queries.len() / ORACLE_QUERIES).max(1);
    for q in workload.queries.iter().step_by(stride).take(ORACLE_QUERIES) {
        result.attempted += 1;
        let mut answers = Vec::new();
        for kind in AlgorithmKind::ALL {
            let mut algo = kind.build_with(tree, q.point.clone(), K, &mut scratch)?;
            let run = run_query_with(tree, algo.as_mut(), &mut scratch)?;
            let dists: Vec<u64> = run.results.iter().map(|n| n.dist_sq.to_bits()).collect();
            answers.push(dists);
        }
        if answers[0].len() != K || answers.iter().any(|a| *a != answers[0]) {
            result.fail(format!(
                "algorithms disagree on the neighbours of {}",
                q.point
            ));
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx, traced: bool) -> Res<RunResult> {
    let mut result = RunResult::default();

    // Set-up (dataset, tree build, Simulation::new) several times over,
    // median reported, the last one kept.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        drop(built.take()); // free the previous tree before building the next
        let started = Instant::now();
        let (tree, points) = build_tree()?;
        Simulation::new(&tree, SystemParams::with_disks(DISKS))?;
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some((tree, points));
    }
    let (tree, points) = built.expect("at least one set-up");
    let sim = Simulation::new(&tree, SystemParams::with_disks(DISKS))?;
    let workloads: Vec<Workload> = LAMBDAS
        .iter()
        .map(|&l| workload(&points, l, ctx.seed))
        .collect();

    if traced {
        return run_traced(ctx, result, &tree, &sim, &workloads);
    }

    result.set_n("setup_s", median(&setup_s), setup_s.len());
    let mut reps: Vec<Vec<Timed>> = Vec::new();
    let mut timed_s = 0.0;
    let started = Instant::now();
    while reps.len() < MIN_REPS || timed_s < ctx.seconds {
        let runs = repetition(&sim, &workloads, ctx.seed)?;
        timed_s += runs.iter().map(|r| r.host_s).sum::<f64>();
        check_runs(
            &mut result,
            reps.len(),
            &runs,
            reps.first().unwrap_or(&runs),
        );
        reps.push(runs);
        if started.elapsed().as_secs_f64() > 6.0 * ctx.seconds {
            break;
        }
    }
    check_answers(&mut result, &tree, &workloads[0])?;

    // One sample per repetition: host time of its eight runs per query.
    let per_query_us: Vec<f64> = reps
        .iter()
        .map(|runs| {
            runs.iter().map(|r| r.host_s).sum::<f64>() * 1e6 / (runs.len() * QUERIES) as f64
        })
        .collect();
    let simulated = reps.iter().map(Vec::len).sum::<usize>() * QUERIES;
    result.set_n("p50_us", median(&per_query_us), reps.len());
    result.set_n("ops_per_s", simulated as f64 / timed_s, reps.len());
    result.set(
        "rss_mb",
        vm_hwm_mb(std::process::id()).ok_or("cannot read own VmHWM from /proc")?,
    );
    result.set(
        "store_bytes_per_point",
        (tree.store().allocated_pages() * PAGE_SIZE) as f64 / POINTS as f64,
    );
    result.notes.push(format!(
        "{} repetitions of 8 runs × {QUERIES} queries: {per_query_us:.1?} us per query",
        reps.len()
    ));
    Ok(result)
}

/// Counts the simulator's events by delegating nothing: the count is all
/// the traced run wants from the event stream.
#[derive(Default)]
struct CountingRecorder(u64);

impl Recorder for CountingRecorder {
    fn record(&mut self, _ts_ns: u64, _event: Event) {
        self.0 += 1;
    }
}

fn run_traced(
    ctx: &Ctx,
    mut result: RunResult,
    tree: &Tree,
    sim: &Simulation<'_, Tree>,
    workloads: &[Workload],
) -> Res<RunResult> {
    // Host time of the simulator proper: two repetitions, the faster run
    // of each pair (the first also warms allocator and caches).
    let first = repetition(sim, workloads, ctx.seed)?;
    let second = repetition(sim, workloads, ctx.seed)?;
    check_runs(&mut result, 0, &first, &first);
    check_runs(&mut result, 1, &second, &first);
    let sim_host_s: f64 = first
        .iter()
        .zip(&second)
        .map(|(a, b)| a.host_s.min(b.host_s))
        .sum();
    let simulated = (first.len() * QUERIES) as f64;

    // What the same queries cost without the event machinery: the
    // logical executor, every algorithm, both workloads' points.
    let mut scratch = QueryScratch::new();
    let mut logical_s = f64::INFINITY;
    for _ in 0..2 {
        let started = Instant::now();
        for kind in AlgorithmKind::ALL {
            for workload in workloads {
                for q in &workload.queries {
                    let mut algo = kind.build_with(tree, q.point.clone(), K, &mut scratch)?;
                    std::hint::black_box(run_query_with(tree, algo.as_mut(), &mut scratch)?);
                }
            }
        }
        logical_s = logical_s.min(started.elapsed().as_secs_f64());
    }

    // Events per query: one recorded run per algorithm (λ = 5).
    let mut events = 0u64;
    for kind in AlgorithmKind::ALL {
        let mut recorder = CountingRecorder::default();
        sim.run_recorded(kind, &workloads[0], ctx.seed, &mut recorder)?;
        events += recorder.0;
    }
    let events_per_query = events as f64 / (AlgorithmKind::ALL.len() * QUERIES) as f64;

    // CRSS at λ = 5 is the paper's headline configuration.
    let crss = first
        .iter()
        .find(|r| r.report.algorithm == AlgorithmKind::Crss.name())
        .map(|r| &r.report)
        .ok_or("no CRSS run")?;
    result.set("core.sim_host_us_per_query", sim_host_s * 1e6 / simulated);
    result.set("core.sim_nodes_per_query", crss.mean_nodes_per_query);
    result.set("core.sim_mean_response_ms", crss.mean_response_s * 1e3);
    result.set("simkernel.events_per_query", events_per_query);
    result.set(
        "simkernel.host_ns_per_event",
        (sim_host_s - logical_s) * 1e9 / (simulated * events_per_query),
    );
    result.set("simkernel.disk_utilization", crss.mean_disk_utilization);
    result.set("simkernel.bus_utilization", crss.bus_utilization);
    result.set("simkernel.cpu_utilization", crss.cpu_utilization);
    result.notes.push(format!(
        "simulator {sim_host_s:.3} s, logical executor {logical_s:.3} s for {simulated} queries"
    ));
    Ok(result)
}

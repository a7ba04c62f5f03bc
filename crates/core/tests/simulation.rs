//! Tests of the event-driven simulated executor: completion, determinism,
//! and the qualitative behaviours the paper's evaluation rests on.

use sqda_core::{AlgorithmKind, QueryError, Simulation, Workload};
use sqda_geom::rng::Rng;
use sqda_geom::Point;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_simkernel::SystemParams;
use sqda_storage::{ArrayStore, PageStore};
use std::sync::Arc;

fn build_tree(n: usize, dim: usize, disks: u32, fanout: usize, seed: u64) -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::new(disks, 1449, seed));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::new(dim).with_max_entries(fanout),
        Box::new(ProximityIndex),
    )
    .unwrap();
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..n {
        let p = Point::new((0..dim).map(|_| rng.gen_range(0.0..1.0)).collect());
        tree.insert(p, i as u64).unwrap();
    }
    tree
}

fn queries(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect()
}

#[test]
fn all_queries_complete_for_every_algorithm() {
    let tree = build_tree(3000, 2, 10, 16, 1);
    let sim = Simulation::new(&tree, SystemParams::with_disks(10)).unwrap();
    let w = Workload::poisson(queries(40, 2, 2), 10, 5.0, 3);
    for kind in AlgorithmKind::ALL {
        let report = sim.run(kind, &w, 99).unwrap();
        assert_eq!(report.completed, 40, "{kind}");
        assert!(report.mean_response_s > 0.0, "{kind}");
        assert!(report.mean_nodes_per_query >= 1.0, "{kind}");
        assert!(report.makespan_s > 0.0);
    }
}

/// Host reads are not simulated reads: a run decodes each page once, so
/// the store sees at most one read per distinct page (the WOPTSS oracle's
/// included), while the simulator counts a read on its disk for every
/// node every query fetched.
#[test]
fn a_run_reads_each_page_from_the_store_at_most_once() {
    let tree = build_tree(3000, 2, 10, 16, 1);
    let pages = tree.stats().unwrap().total_nodes();
    let sim = Simulation::new(&tree, SystemParams::with_disks(10)).unwrap();
    let w = Workload::poisson(queries(40, 2, 2), 10, 5.0, 3);
    for kind in AlgorithmKind::ALL {
        tree.store().reset_stats();
        let report = sim.run(kind, &w, 99).unwrap();
        let simulated = report.io_stats();
        assert_eq!(simulated.reads_per_disk.len(), 10, "{kind}");
        assert_eq!(
            simulated.reads as f64,
            report.mean_nodes_per_query * report.completed as f64,
            "{kind}: one simulated read per node fetched"
        );
        let stored = tree.io_stats().reads;
        assert!(0 < stored && stored <= pages, "{kind}: {stored} of {pages}");
        assert!(stored < simulated.reads, "{kind}: pages are shared");
    }
}

#[test]
fn simulation_is_deterministic() {
    let tree = build_tree(2000, 2, 5, 16, 4);
    let sim = Simulation::new(&tree, SystemParams::with_disks(5)).unwrap();
    let w = Workload::poisson(queries(25, 2, 5), 10, 5.0, 6);
    let a = sim.run(AlgorithmKind::Crss, &w, 7).unwrap();
    let b = sim.run(AlgorithmKind::Crss, &w, 7).unwrap();
    assert_eq!(a.mean_response_s, b.mean_response_s);
    assert_eq!(a.makespan_s, b.makespan_s);
    // A different timing seed changes rotational latencies.
    let c = sim.run(AlgorithmKind::Crss, &w, 8).unwrap();
    assert_ne!(a.mean_response_s, c.mean_response_s);
}

#[test]
fn single_query_latency_is_physical() {
    // A single k=1 query must cost at least: startup + one disk access +
    // one bus transfer per level of the tree.
    let tree = build_tree(2000, 2, 10, 16, 9);
    let sim = Simulation::new(&tree, SystemParams::with_disks(10)).unwrap();
    let w = Workload::single(Point::new(vec![0.5, 0.5]), 1);
    let report = sim.run(AlgorithmKind::Crss, &w, 1).unwrap();
    let height = tree.height() as f64;
    // Lower bound: startup (1 ms) + height * (transfer+overhead = 2 ms).
    let floor = 0.001 + height * 0.002;
    assert!(
        report.mean_response_s > floor,
        "{} <= floor {floor}",
        report.mean_response_s
    );
    // And it is far below a second on an idle array.
    assert!(report.mean_response_s < 1.0);
}

#[test]
fn response_time_grows_with_load() {
    let tree = build_tree(4000, 2, 5, 16, 10);
    let sim = Simulation::new(&tree, SystemParams::with_disks(5)).unwrap();
    let pts = queries(60, 2, 11);
    let light = sim
        .run(
            AlgorithmKind::Crss,
            &Workload::poisson(pts.clone(), 10, 1.0, 12),
            5,
        )
        .unwrap();
    let heavy = sim
        .run(
            AlgorithmKind::Crss,
            &Workload::poisson(pts, 10, 50.0, 12),
            5,
        )
        .unwrap();
    assert!(
        heavy.mean_response_s > light.mean_response_s,
        "heavy {} <= light {}",
        heavy.mean_response_s,
        light.mean_response_s
    );
}

#[test]
fn woptss_is_fastest_on_average() {
    let tree = build_tree(4000, 2, 10, 16, 13);
    let sim = Simulation::new(&tree, SystemParams::with_disks(10)).unwrap();
    let w = Workload::poisson(queries(50, 2, 14), 20, 5.0, 15);
    let wopt = sim.run(AlgorithmKind::Woptss, &w, 3).unwrap();
    for kind in AlgorithmKind::REAL {
        let r = sim.run(kind, &w, 3).unwrap();
        assert!(
            r.mean_response_s >= wopt.mean_response_s * 0.999,
            "{kind} {} beat WOPTSS {}",
            r.mean_response_s,
            wopt.mean_response_s
        );
    }
}

#[test]
fn crss_beats_bbss_under_load() {
    // The paper's headline result: under a multi-user workload CRSS
    // responds faster than the branch-and-bound search.
    let tree = build_tree(6000, 2, 10, 16, 16);
    let sim = Simulation::new(&tree, SystemParams::with_disks(10)).unwrap();
    let w = Workload::poisson(queries(60, 2, 17), 50, 5.0, 18);
    let crss = sim.run(AlgorithmKind::Crss, &w, 4).unwrap();
    let bbss = sim.run(AlgorithmKind::Bbss, &w, 4).unwrap();
    assert!(
        crss.mean_response_s < bbss.mean_response_s,
        "CRSS {} >= BBSS {}",
        crss.mean_response_s,
        bbss.mean_response_s
    );
}

#[test]
fn utilizations_are_sane() {
    let tree = build_tree(3000, 2, 5, 16, 19);
    let sim = Simulation::new(&tree, SystemParams::with_disks(5)).unwrap();
    let w = Workload::poisson(queries(40, 2, 20), 10, 10.0, 21);
    let r = sim.run(AlgorithmKind::Fpss, &w, 5).unwrap();
    for u in [
        r.mean_disk_utilization,
        r.bus_utilization,
        r.cpu_utilization,
    ] {
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }
    assert!(r.mean_disk_utilization > 0.0);
    assert!(r.p95_response_s >= r.mean_response_s * 0.5);
    assert!(r.max_response_s >= r.p95_response_s);
}

#[test]
fn mismatched_disk_count_is_a_config_error() {
    let tree = build_tree(100, 2, 4, 8, 22);
    let err = Simulation::new(&tree, SystemParams::with_disks(10))
        .err()
        .expect("disk mismatch must be rejected");
    assert!(matches!(err, QueryError::Config(_)));
    assert!(err.to_string().contains("disk count must match"));
}

#[test]
fn simulated_results_match_logical_results() {
    // Timing must not change the answers.
    let tree = build_tree(2500, 2, 8, 16, 23);
    let sim = Simulation::new(&tree, SystemParams::with_disks(8)).unwrap();
    let pts = queries(10, 2, 24);
    for kind in AlgorithmKind::ALL {
        for p in &pts {
            let mut algo = kind.build(&tree, p.clone(), 15).unwrap();
            let logical = sqda_core::exec::run_query(&tree, algo.as_mut()).unwrap();
            let w = Workload::single(p.clone(), 15);
            let report = sim.run(kind, &w, 6).unwrap();
            // The simulated run fetches the same number of nodes.
            assert_eq!(
                report.mean_nodes_per_query, logical.nodes_visited as f64,
                "{kind}"
            );
        }
    }
}

//! Tests of the tracing/metrics layer: the recorder seam must not
//! change simulation results, the event stream must be internally
//! consistent, the Perfetto export must be structurally valid, and a
//! fully deterministic run must reproduce its golden JSONL log
//! byte-for-byte.

use sqda_core::{mirror_partner, AlgorithmKind, Simulation, Workload, WorkloadQuery};
use sqda_geom::Point;
use sqda_obs::{
    chrome_trace, events_to_jsonl, json, query_profiles, CollectingRecorder, Event, MetricsSnapshot,
};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_simkernel::{DiskParams, SimTime, SystemParams};
use sqda_storage::ArrayStore;
use std::sync::Arc;

/// A tree built from hand-written points over a 1-cylinder array: page
/// placement involves no effective randomness, so together with the
/// zero-revolution disk below the whole simulation is deterministic
/// regardless of the RNG implementation.
fn deterministic_tree(num_disks: u32) -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::new(num_disks, 1, 0));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::new(2).with_max_entries(4),
        Box::new(ProximityIndex),
    )
    .unwrap();
    // A 5×5 grid, inserted row-major.
    for i in 0..25u64 {
        let x = (i % 5) as f64;
        let y = (i / 5) as f64;
        tree.insert(Point::new(vec![x, y]), i).unwrap();
    }
    tree
}

/// Deterministic system: no rotational latency (no RNG draw), no seeks
/// (single cylinder). Service time is exactly transfer + overhead.
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

fn deterministic_workload() -> Workload {
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

#[test]
fn recording_does_not_change_results() {
    let tree = deterministic_tree(4);
    let w = deterministic_workload();
    let sim = Simulation::new(&tree, deterministic_params(4)).unwrap();
    for kind in AlgorithmKind::ALL {
        let plain = sim.run(kind, &w, 42).unwrap();
        let mut rec = CollectingRecorder::new();
        let recorded = sim.run_recorded(kind, &w, 42, &mut rec).unwrap();
        assert!(!rec.is_empty(), "{kind}: no events recorded");
        // Bit-identical headline numbers: recording must only observe.
        assert_eq!(plain.completed, recorded.completed, "{kind}");
        assert_eq!(plain.mean_response_s, recorded.mean_response_s, "{kind}");
        assert_eq!(plain.std_response_s, recorded.std_response_s, "{kind}");
        assert_eq!(plain.max_response_s, recorded.max_response_s, "{kind}");
        assert_eq!(plain.p95_response_s, recorded.p95_response_s, "{kind}");
        assert_eq!(
            plain.mean_nodes_per_query, recorded.mean_nodes_per_query,
            "{kind}"
        );
        assert_eq!(plain.makespan_s, recorded.makespan_s, "{kind}");
    }
}

/// Also under a stochastic (default-drive) configuration: the recorded
/// path must consume the RNG stream identically.
#[test]
fn recording_preserves_rng_stream() {
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
    let plain = sim.run(AlgorithmKind::Crss, &w, 9).unwrap();
    let mut rec = CollectingRecorder::new();
    let recorded = sim
        .run_recorded(AlgorithmKind::Crss, &w, 9, &mut rec)
        .unwrap();
    assert_eq!(plain.mean_response_s, recorded.mean_response_s);
    assert_eq!(plain.makespan_s, recorded.makespan_s);
}

#[test]
fn event_stream_is_internally_consistent() {
    let tree = deterministic_tree(4);
    let w = deterministic_workload();
    let sim = Simulation::new(&tree, deterministic_params(4)).unwrap();
    let mut rec = CollectingRecorder::new();
    let report = sim
        .run_recorded(AlgorithmKind::Crss, &w, 1, &mut rec)
        .unwrap();
    let events = rec.events();

    let arrives = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::QueryArrive { .. }))
        .count();
    let completes: Vec<_> = events
        .iter()
        .filter_map(|(_, e)| match *e {
            Event::QueryComplete {
                query,
                response_ns,
                nodes,
                ..
            } => Some((query, response_ns, nodes)),
            _ => None,
        })
        .collect();
    assert_eq!(arrives, w.queries.len());
    assert_eq!(completes.len(), report.completed);

    // Per-query node counts from disk events match the completion record,
    // and the profile fold agrees.
    let profiles = query_profiles(events);
    assert_eq!(profiles.len(), w.queries.len());
    for (query, response_ns, nodes) in &completes {
        let disk_events = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::DiskService { query: q, .. } if q == query))
            .count() as u64;
        assert_eq!(disk_events, *nodes, "query {query}");
        let p = &profiles[*query as usize];
        assert_eq!(p.total_nodes(), *nodes);
        assert_eq!(p.response_ns, *response_ns);
        assert_eq!(p.complete_ns - p.arrive_ns, *response_ns);
        // The root batch is level 0 and every level is populated up to
        // the deepest one.
        assert!(p.nodes_per_level[0] >= 1);
        assert!(p.nodes_per_level.iter().all(|&n| n > 0));
        // CRSS reported its threshold trajectory.
        assert!(!p.crss_trajectory.is_empty());
        // Timestamps are within the run.
        assert!(p.complete_ns as f64 <= report.makespan_s * 1e9 + 1.0);
    }

    // Every fetched node crosses the bus exactly once.
    let disk_total = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::DiskService { .. }))
        .count();
    let bus_total = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::BusTransfer { .. }))
        .count();
    assert_eq!(disk_total, bus_total);
}

#[test]
fn metrics_snapshot_folds_run_and_store() {
    let tree = deterministic_tree(4);
    let w = deterministic_workload();
    let sim = Simulation::new(&tree, deterministic_params(4)).unwrap();
    let mut rec = CollectingRecorder::new();
    let report = sim
        .run_recorded(AlgorithmKind::Fpss, &w, 1, &mut rec)
        .unwrap();
    let mut snap = MetricsSnapshot::from_events(rec.events());
    snap.fold_io_stats(&report.io_stats());
    assert_eq!(snap.queries_completed.0, 2);
    assert!(!snap.disks.is_empty());
    // FPSS over a round-robin declustered tree spreads requests; the
    // imbalance CV must be well below the all-on-one-disk regime.
    assert!(snap.load_imbalance() < 1.0, "CV {}", snap.load_imbalance());
    // The simulated work is the reads the disks served: unmirrored,
    // each disk's narrated requests are exactly the reads counted on it,
    // and the snapshot renders as valid JSON.
    for (&disk, d) in &snap.disks {
        assert_eq!(
            d.requests.0, snap.store_reads_per_disk[disk as usize],
            "disk {disk}"
        );
    }
    let timed: u64 = snap.disks.values().map(|d| d.requests.0).sum();
    let stored: u64 = snap.store_reads_per_disk.iter().sum();
    assert_eq!(stored, timed);
    let doc = json::parse(&snap.to_json()).unwrap();
    assert_eq!(doc.get("queries_completed").unwrap().as_u64(), Some(2));
}

#[test]
fn perfetto_trace_structure_is_valid() {
    let tree = deterministic_tree(4);
    let w = deterministic_workload();
    let sim = Simulation::new(&tree, deterministic_params(4)).unwrap();
    let mut rec = CollectingRecorder::new();
    sim.run_recorded(AlgorithmKind::Crss, &w, 1, &mut rec)
        .unwrap();
    let text = chrome_trace(rec.events(), 4, 1);
    let doc = json::parse(&text).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

    // Thread-name metadata for all 4 disks, the bus, and the CPU.
    for (pid, tid_count) in [(1u64, 4u64), (2, 1), (3, 1)] {
        let threads = events
            .iter()
            .filter(|e| {
                e.get("ph").unwrap().as_str() == Some("M")
                    && e.get("name").unwrap().as_str() == Some("thread_name")
                    && e.get("pid").unwrap().as_u64() == Some(pid)
            })
            .count() as u64;
        assert_eq!(threads, tid_count, "pid {pid}");
    }

    // Every query has exactly one async begin and one async end, paired
    // by id, and end.ts >= begin.ts.
    for q in 0..2u64 {
        let b: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph").unwrap().as_str() == Some("b")
                    && e.get("id").unwrap().as_u64() == Some(q)
            })
            .collect();
        let e: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph").unwrap().as_str() == Some("e")
                    && e.get("id").unwrap().as_u64() == Some(q)
            })
            .collect();
        assert_eq!((b.len(), e.len()), (1, 1), "query {q}");
        assert!(
            e[0].get("ts").unwrap().as_f64() >= b[0].get("ts").unwrap().as_f64(),
            "query {q} span inverted"
        );
    }

    // Complete slices land on the declared component tracks only.
    for ev in events {
        if ev.get("ph").unwrap().as_str() == Some("X") {
            let pid = ev.get("pid").unwrap().as_u64().unwrap();
            assert!((1..=3).contains(&pid), "slice on unexpected pid {pid}");
            assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        }
    }
}

/// The golden log of the small deterministic CRSS run. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p sqda-core --test observability` after
/// an intentional schema or model change, and review the diff.
#[test]
fn golden_jsonl_log_of_deterministic_run() {
    let tree = deterministic_tree(2);
    let w = Workload {
        queries: vec![WorkloadQuery {
            arrival: SimTime::ZERO,
            point: Point::new(vec![2.1, 2.0]),
            k: 2,
        }],
    };
    let sim = Simulation::new(&tree, deterministic_params(2)).unwrap();
    let mut rec = CollectingRecorder::new();
    let report = sim
        .run_recorded(AlgorithmKind::Crss, &w, 7, &mut rec)
        .unwrap();
    assert_eq!(report.completed, 1);
    let jsonl = events_to_jsonl(rec.events());

    let dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "crates/core".into());
    let path = std::path::Path::new(&dir).join("tests/golden/trace_small.jsonl");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &jsonl).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        jsonl,
        golden,
        "event log diverged from {} (set UPDATE_GOLDEN=1 to regenerate)",
        path.display()
    );
}

#[test]
fn mirror_partner_is_an_involution() {
    for n in 2..=12usize {
        for d in 0..n {
            match mirror_partner(d, n) {
                Some(p) => {
                    assert_ne!(p, d, "n={n} d={d}");
                    assert!(p < n, "n={n} d={d} partner {p} out of range");
                    // The involution property: redirecting a read to the
                    // partner must land on the disk whose replica pairs
                    // back, i.e. the one that actually holds the copy.
                    assert_eq!(mirror_partner(p, n), Some(d), "n={n} d={d}");
                }
                None => {
                    // Only the odd leftover disk may be unpaired.
                    assert!(n % 2 == 1 && d == n - 1, "n={n} d={d} lost its partner");
                }
            }
        }
    }
}

#[test]
fn mirrored_reads_with_odd_disk_count() {
    let tree = deterministic_tree(5);
    let w = deterministic_workload();
    let plain = Simulation::new(&tree, deterministic_params(5))
        .unwrap()
        .run(AlgorithmKind::Crss, &w, 3)
        .unwrap();
    let params = SystemParams {
        mirrored_reads: true,
        ..deterministic_params(5)
    };
    let sim = Simulation::new(&tree, params).unwrap();
    let mut rec = CollectingRecorder::new();
    let mirrored = sim
        .run_recorded(AlgorithmKind::Crss, &w, 3, &mut rec)
        .unwrap();
    // Mirroring is timing-only.
    assert_eq!(plain.mean_nodes_per_query, mirrored.mean_nodes_per_query);
    assert_eq!(mirrored.completed, 2);
    // Every disk that served a request exists; the unpaired disk (4) may
    // appear only as itself (never as a redirect target, which is
    // implied by the involution test above).
    for (_, e) in rec.events() {
        if let Event::DiskService { disk, .. } = e {
            assert!((*disk as usize) < 5);
        }
    }
}

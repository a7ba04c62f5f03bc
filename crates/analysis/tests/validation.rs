//! Validation of the analytical estimators against ground truth: the
//! logical executor (node accesses) and the event-driven simulator
//! (response times).

use sqda_analysis::{
    estimate_response, expected_knn_accesses, expected_range_accesses, DeviceCalibration,
    DiskServiceModel, QueryIoProfile, TreeProfile,
};
use sqda_core::{exec::run_query, AlgorithmKind, RangeSearch, Simulation, Workload};
use sqda_datasets::uniform;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_simkernel::SystemParams;
use sqda_storage::ArrayStore;
use std::sync::Arc;

fn build(n: usize, dim: usize, disks: u32) -> (RStarTree<ArrayStore>, sqda_datasets::Dataset) {
    let dataset = uniform(n, dim, 42);
    let store = Arc::new(ArrayStore::new(disks, 1449, 7));
    let mut tree =
        RStarTree::create(store, RStarConfig::new(dim), Box::new(ProximityIndex)).unwrap();
    for (i, p) in dataset.points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    (tree, dataset)
}

#[test]
fn range_access_estimate_matches_measurement() {
    let (tree, dataset) = build(10_000, 2, 5);
    let profile = TreeProfile::measure(&tree).unwrap();
    let queries = dataset.sample_queries(50, 9);
    for radius in [0.01, 0.05, 0.1] {
        tree.store().reset_stats();
        use sqda_storage::PageStore;
        for q in &queries {
            let mut search = RangeSearch::new(&tree, q.clone(), radius);
            run_query(&tree, &mut search).unwrap();
        }
        let measured = tree.store().stats().reads as f64 / queries.len() as f64;
        let estimated = expected_range_accesses(&profile, radius);
        let ratio = estimated / measured;
        assert!(
            (0.6..1.6).contains(&ratio),
            "radius {radius}: estimated {estimated:.1}, measured {measured:.1}"
        );
    }
}

#[test]
fn knn_access_estimate_matches_woptss() {
    // The k-NN estimate models the weak-optimal access count.
    let (tree, dataset) = build(10_000, 2, 5);
    let profile = TreeProfile::measure(&tree).unwrap();
    let queries = dataset.sample_queries(40, 11);
    for k in [5usize, 20, 100] {
        let mut measured = 0.0;
        for q in &queries {
            let mut algo = AlgorithmKind::Woptss.build(&tree, q.clone(), k).unwrap();
            measured += run_query(&tree, algo.as_mut()).unwrap().nodes_visited as f64;
        }
        measured /= queries.len() as f64;
        let estimated = expected_knn_accesses(&profile, k).unwrap();
        let ratio = estimated / measured;
        assert!(
            (0.4..2.0).contains(&ratio),
            "k={k}: estimated {estimated:.1}, measured {measured:.1}"
        );
    }
}

#[test]
fn response_estimate_tracks_simulation_below_saturation() {
    let (tree, dataset) = build(10_000, 2, 10);
    let queries = dataset.sample_queries(60, 13);
    let params = SystemParams::with_disks(10);
    let sim = Simulation::new(&tree, params.clone()).unwrap();
    let k = 20;
    for lambda in [1.0f64, 5.0] {
        // Measure the CRSS I/O profile once (logical executor).
        let mut accesses = 0.0;
        let mut batches = 0.0;
        for q in &queries {
            let mut algo = AlgorithmKind::Crss.build(&tree, q.clone(), k).unwrap();
            let run = run_query(&tree, algo.as_mut()).unwrap();
            accesses += run.nodes_visited as f64;
            batches += run.batches as f64;
        }
        let io = QueryIoProfile {
            accesses: accesses / queries.len() as f64,
            batches: batches / queries.len() as f64,
        };
        let predicted = estimate_response(&params, io, lambda)
            .response_s
            .expect("stable");
        let simulated = sim
            .run(
                AlgorithmKind::Crss,
                &Workload::poisson(queries.clone(), k, lambda, 15),
                17,
            )
            .unwrap()
            .mean_response_s;
        let ratio = predicted / simulated;
        assert!(
            (0.3..3.0).contains(&ratio),
            "λ={lambda}: predicted {predicted:.4}, simulated {simulated:.4}"
        );
    }
}

#[test]
fn calibration_recovers_simulated_service_terms() {
    // The acceptance pin for device calibration: run a workload on the
    // simulated backend with known `SystemParams`, fit a
    // `DeviceCalibration` from the recorded trace, and recover the
    // model's seek / rotation / fixed service terms within 10%. The
    // sampled means converge on the analytic integrals because both
    // assume uniformly random cylinder placement.
    let (tree, dataset) = build(10_000, 2, 5);
    let params = SystemParams::with_disks(5);
    let truth = DiskServiceModel::from_params(&params.disk);
    let sim = Simulation::new(&tree, params.clone()).unwrap();
    let queries = dataset.sample_queries(60, 23);
    let workload = Workload::poisson(queries, 20, 2.0, 29);
    let mut recorder = sqda_obs::CollectingRecorder::default();
    sim.run_recorded(AlgorithmKind::Crss, &workload, 31, &mut recorder)
        .unwrap();
    let cal = DeviceCalibration::fit_from_events(recorder.events()).unwrap();
    assert!(
        cal.samples > 200,
        "need a real sample size, got {}",
        cal.samples
    );
    for (name, fitted, expected) in [
        ("seek", cal.mean_seek_s, truth.mean_seek_s),
        ("rotation", cal.mean_rotation_s, truth.mean_rotation_s),
        ("fixed", cal.fixed_s, truth.fixed_s),
    ] {
        let rel = (fitted - expected).abs() / expected;
        assert!(
            rel < 0.10,
            "{name}: fitted {fitted:.6}, model {expected:.6}, off by {:.1}%",
            rel * 100.0
        );
    }
    // Applying the fit reproduces the fitted terms, closing the loop:
    // calibrated parameters predict with the measured service time.
    let applied = DiskServiceModel::from_params(&cal.apply(&params).disk);
    assert!((applied.mean_service_s() - cal.mean_service_s()).abs() < 1e-9);
}

#[test]
fn estimator_predicts_instability_where_simulation_saturates() {
    let (tree, dataset) = build(8_000, 2, 2);
    let queries = dataset.sample_queries(20, 19);
    let params = SystemParams::with_disks(2);
    // FPSS at high λ on 2 disks: the estimator must flag instability.
    let mut accesses = 0.0;
    for q in &queries {
        let mut algo = AlgorithmKind::Fpss.build(&tree, q.clone(), 50).unwrap();
        accesses += run_query(&tree, algo.as_mut()).unwrap().nodes_visited as f64;
    }
    let io = QueryIoProfile {
        accesses: accesses / queries.len() as f64,
        batches: 4.0,
    };
    let estimate = estimate_response(&params, io, 50.0);
    assert!(estimate.utilization >= 1.0);
    assert_eq!(estimate.response_s, None);
}

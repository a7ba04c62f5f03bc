//! `experiment bench_explain`: the introspection loop, measured — per-query
//! `QueryExplain` records from the real-clock engine against the
//! analytical predictions (Minkowski-sum access model + M/M/1 service
//! model), swept over k, plus a replayed device calibration fitted from
//! a recorded simulated run of the same tree.
//!
//! The node-access residuals are deterministic: the store is read back
//! moments after it was written, so the OS serves every read from memory,
//! and the engine's CRSS then does the logical executor's work at one
//! branch per round (pinned by the backend-parity test). So
//! `mean_observed_accesses` and `mean_abs_residual_accesses` are
//! regression-gated: a drift between model and implementation fails CI.
//! Wall-clock latencies depend on the host and stay `Direction::Info`.
//!
//! Emits `bench_explain.csv` and the fragment `bench/bench_explain.json`
//! under `--out` (default `results/`); the fitted calibration's terms go
//! into the fragment as `Info` metrics.

use sqda_analysis::{predict_knn, DeviceCalibration, TreeProfile};
use sqda_bench::{
    experiment_page_size, f2, rep_query_sets,
    report::{BinReport, Direction},
    ExpOptions, ResultsTable,
};
use sqda_core::{AlgorithmKind, QueryScratch, RealTimeEngine, Simulation, Workload};
use sqda_datasets::uniform;
use sqda_obs::{MetricSummary, Prediction};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{Node, RStarConfig, RStarTree};
use sqda_simkernel::SystemParams;
use sqda_storage::{FileStore, NodeCache, ThreadedFileBackend};
use std::sync::Arc;

const DISKS: u32 = 8;
const KIND: AlgorithmKind = AlgorithmKind::Crss;
const LAMBDA: f64 = 1.0;

/// Runs the sweep (see the module docs).
pub fn run(opts: &ExpOptions) {
    let dim = 2;
    let page_size = experiment_page_size(dim);
    let dataset = uniform(opts.population(20_000), dim, 4601);
    let ks: &[usize] = opts.pick(&[5, 20], &[1, 5, 20, 50, 100]);

    // Persist the tree: EXPLAIN is a serving-stack feature, so the
    // records come from the same FileStore + threaded-backend engine
    // `sqda serve` runs.
    let dir = std::env::temp_dir().join(format!("sqda-bench-explain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        Arc::new(FileStore::create(&dir, DISKS, 1449, page_size, 4602).expect("create store"));
    let mut tree = RStarTree::create(
        store.clone(),
        RStarConfig::with_page_size(dim, page_size),
        Box::new(ProximityIndex),
    )
    .expect("create tree");
    for (i, p) in dataset.points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).expect("insert");
    }
    store.sync().expect("sync store");
    tree.set_node_cache(Arc::new(NodeCache::<Node>::new(4096)));

    let query_sets = rep_query_sets(&dataset, opts, 4603);
    let profile = TreeProfile::measure(&tree).expect("profile");
    let params = SystemParams::with_disks(DISKS);

    // Replayed calibration: record a simulated run under known
    // `SystemParams` and fit the device service terms back out of the
    // trace — the offline counterpart of the fit `sqda serve` performs
    // from its live disk counters at shutdown.
    let mut recorder = sqda_obs::CollectingRecorder::default();
    Simulation::new(&tree, params.clone())
        .expect("simulation")
        .run_recorded(
            KIND,
            &Workload::poisson(query_sets[0].clone(), 10, 2.0, 4604),
            4605,
            &mut recorder,
        )
        .expect("simulated run");
    let calibration = DeviceCalibration::fit_from_events(recorder.events());

    let mut report = BinReport::new("bench_explain", opts);
    report
        .param("dataset", dataset.name.clone())
        .param("disks", DISKS)
        .param("algorithm", KIND.name())
        .param("page_size", page_size)
        .param("lambda", LAMBDA)
        .param("queries", opts.queries())
        .master_seed(4603);
    if let Some(cal) = &calibration {
        for (name, value) in [
            ("calibration_mean_service_ms", cal.mean_service_s() * 1e3),
            ("calibration_samples", cal.samples as f64),
            ("calibration_mean_seek_ms", cal.mean_seek_s * 1e3),
            ("calibration_mean_rotation_ms", cal.mean_rotation_s * 1e3),
            ("calibration_fixed_ms", cal.fixed_s * 1e3),
        ] {
            report.metric(name, &[], &[value], Direction::Info);
        }
    }

    let backend = Arc::new(ThreadedFileBackend::new(store.clone()));
    let engine = RealTimeEngine::new(&tree, backend).expect("real-clock engine");
    let mut scratch = QueryScratch::new();

    let mut table = ResultsTable::new(
        format!(
            "bench_explain — predicted vs observed per-query work \
             (set: {}, n={}, {DISKS} disks, {}, λ={LAMBDA})",
            dataset.name,
            dataset.len(),
            KIND.name(),
        ),
        &[
            "k",
            "predicted_A",
            "observed_A",
            "|residual|",
            "resid_%",
            "predicted_ms",
            "observed_ms",
        ],
    );
    for &k in ks {
        let p = predict_knn(&profile, &params, tree.height(), k, LAMBDA)
            .expect("non-degenerate data space");
        let pred = Prediction::from(p);
        let request = (LAMBDA, false, Some(pred));
        let mut obs_acc_reps = Vec::new();
        let mut abs_resid_reps = Vec::new();
        let mut obs_ms_reps = Vec::new();
        for qs in &query_sets {
            let mut acc = 0.0;
            let mut resid = 0.0;
            let mut ms = 0.0;
            for q in qs {
                let run = engine
                    .query(KIND, q.clone(), k, Some(request), &mut scratch)
                    .expect("explain query");
                let rec = scratch.record();
                assert_eq!(rec.answers, run.results.len(), "explain answer count");
                acc += rec.nodes as f64;
                resid += rec.residual_accesses().expect("prediction attached").abs();
                ms += rec.response_ms;
            }
            let n = qs.len() as f64;
            obs_acc_reps.push(acc / n);
            abs_resid_reps.push(resid / n);
            obs_ms_reps.push(ms / n);
        }
        let observed = MetricSummary::from_samples(&obs_acc_reps);
        let residual = MetricSummary::from_samples(&abs_resid_reps);
        let obs_ms = MetricSummary::from_samples(&obs_ms_reps);
        let labels = [("k", k.to_string())];
        for (name, samples, direction) in [
            ("mean_observed_accesses", &obs_acc_reps, Direction::Lower),
            (
                "mean_abs_residual_accesses",
                &abs_resid_reps,
                Direction::Lower,
            ),
            ("predicted_accesses", &vec![pred.accesses], Direction::Info),
            ("mean_observed_response_ms", &obs_ms_reps, Direction::Info),
        ] {
            report.metric(name, &labels, samples, direction);
        }
        table.row(vec![
            k.to_string(),
            f2(pred.accesses),
            f2(observed.mean),
            f2(residual.mean),
            f2(100.0 * residual.mean / pred.accesses),
            if pred.response_ms.is_finite() {
                f2(pred.response_ms)
            } else {
                "unstable".into()
            },
            format!("{:.4}", obs_ms.mean),
        ]);
    }
    table.print();
    table.write_csv(&opts.out_dir, "bench_explain");
    report.finish(opts);
    std::fs::remove_dir_all(&dir).ok();
}

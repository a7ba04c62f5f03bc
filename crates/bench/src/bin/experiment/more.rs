//! Beyond the figures: the ablations of the paper's Section 2 design
//! choices, its Section 5 future-work items measured, the analytical
//! model against the simulator, and degraded service under disk faults.

use sqda_analysis::{predict_knn, TreeProfile};
use sqda_bench::claims::{Claim, Need::Quick, Rows, Section, Stat};
use sqda_bench::sweep::*;
use sqda_bench::{build_tree, experiment_page_size, rep_query_sets};
use sqda_core::{Crss, SimulationReport};
use sqda_datasets::{california_like, gaussian, uniform, Dataset};
use sqda_rstar::decluster::{self, ProximityIndex};
use sqda_rstar::{PackingOrder, RStarConfig, RStarTree, SplitPolicy, SsConfig, SsTree};
use sqda_simkernel::SimTime;
use sqda_storage::{ArrayStore, IoStats, PageStore};
use std::{iter::zip, sync::Arc};
use AlgorithmKind::{Bbss, Crss as CrssKind, Fpss, Woptss};
use Direction::{Higher, Info, Lower};
use Measure::{Nodes, Response};
use Seeds::{One, Two};

/// The sections of `REPORT.md` these sweeps feed; their other CSVs are
/// rendered under "Other results".
pub const SECTIONS: [Section; 2] = [ABLATION_CRSS_BOUND, EXT_TIGHTER_THRESHOLD];

/// `tree`'s node count and average fill, a row's info values.
fn tree_info(tree: &RStarTree<ArrayStore>) -> Vec<f64> {
    let stats = tree.stats().expect("tree stats");
    vec![stats.total_nodes() as f64, stats.avg_fill]
}

/// A packed (bulk-loaded) Proximity-Index tree of `d` on 10 disks.
fn bulk_tree(d: &Dataset, seed: u64, order: PackingOrder) -> RStarTree<ArrayStore> {
    let page = experiment_page_size(d.dim);
    let store = Arc::new(ArrayStore::with_page_size(10, 1449, page, seed));
    let points = d.points.iter().cloned().zip(0u64..).collect();
    let config = RStarConfig::with_page_size(d.dim, page);
    let tree = RStarTree::bulk_load(store, config, Box::new(ProximityIndex), points, order)
        .expect("bulk load");
    tree.store().reset_stats();
    tree
}

/// Shadowed (mirrored) disks under `faults`.
fn mirrored(faults: FaultPlan) -> Sys {
    let params = SystemParams {
        mirrored_reads: true,
        ..SystemParams::default()
    };
    Sys { params, faults }
}

/// Ablation 1 (Section 2.2's claim): the Proximity-Index declustering
/// heuristic beats random, round-robin, data-balance and area-balance
/// placement for similarity queries on the parallel R\*-tree — the same
/// tree under each heuristic, compared on CRSS and FPSS response time and
/// on the read imbalance across disks (its coefficient of variation over
/// every replication's simulated reads: a placement property of the
/// tree, not a per-replication random variable).
pub fn ablation_declustering(opts: &ExpOptions) {
    let d = california_like(opts.population(62_173), 1601);
    let queries = rep_query_sets(&d, opts, 1611);
    let rows = decluster::all_heuristics(1620).into_iter().map(|h| {
        let name = h.name();
        let setup = Setup::new(build_tree(&d, 10, 1610, h, |c| c), queries.clone());
        Row::new(&setup, 20, 5.0, &[&name])
    });
    let resp = |a: AlgorithmKind| Col::run(a, Response(One(1612))).label("algorithm", a);
    let imbalance = Col::info(|_, samples| {
        let mut io = IoStats::default();
        for report in samples.iter().flatten().filter_map(|s| s.sim.as_ref()) {
            let reads = &report.reads_per_disk;
            io.reads_per_disk.resize(reads.len(), 0);
            for (total, r) in io.reads_per_disk.iter_mut().zip(reads) {
                *total += r;
            }
        }
        io.reads = io.reads_per_disk.iter().sum();
        io.read_imbalance()
    });
    let panel = Panel {
        title: format!(
            "Ablation — declustering heuristics (set: {}, n={}, disks: 10, k=20, λ=5)",
            d.name,
            d.len()
        ),
        csv: "ablation_declustering".into(),
        labels: &["heuristic"],
        keys: &["heuristic"],
        cols: vec![
            resp(CrssKind).show("CRSS resp (s)", f4),
            resp(Fpss).show("FPSS resp (s)", f4),
            imbalance
                .show("read imbalance (cv)", f3)
                .metric("read_imbalance_cv", Info),
        ],
        rows: rows.collect(),
    };
    panel.run("ablation_declustering", 1611, opts);
}

#[rustfmt::skip]
const ABLATION_CRSS_BOUND: Section = Section { title: "Ablation 2 — CRSS activation bound u (10 disks, k = 20, λ = 5)",
    paper: "CRSS activates at most u = NumOfDisks branches per round: fewer wastes parallelism, more floods the array with speculative fetches.",
    csvs: &["ablation_crss_bound"], claims: &[
        Claim { need: Quick, csv: "ablation_crss_bound", rows: Rows::All, stat: Stat::ArgMin("mean resp (s)"), within: (10.0, 10.0), what: "u with the lowest mean response", paper: "u = NumOfDisks = 10" },
 ] };

/// Ablation 2: sensitivity of CRSS to the activation upper bound `u`.
///
/// The paper fixes `u = NumOfDisks`, arguing it balances parallelism and
/// wasted fetches. This sweeps `u` on a 10-disk array: `u = 1`
/// degenerates towards BBSS (serial), large `u` towards FPSS (flooding);
/// the sweet spot should sit near the disk count.
pub fn ablation_crss_bound(opts: &ExpOptions) {
    let d = gaussian(opts.population(50_000), 5, 1701);
    let setup = Setup::build(&d, 10, 1710, 1711, opts);
    let rows = [1usize, 2, 5, 10, 20, 40].map(|u| {
        let arm = Arm::crss("CRSS", move |am, q, k| {
            Crss::with_activation_bound(am, q, k, u)
        });
        Row::new(&setup, 20, 5.0, &[&u]).arm(arm)
    });
    let panel = Panel {
        title: format!(
            "Ablation — CRSS activation bound u (set: {}, n={}, disks: 10, k=20, λ=5)",
            d.name,
            d.len()
        ),
        csv: "ablation_crss_bound".into(),
        labels: &["u"],
        keys: &["u"],
        cols: vec![
            Col::run(Arm::Row, Response(Two(1712, 1713))).show("mean resp (s)", f4),
            Col::run(Arm::Row, Nodes).show("nodes/query", f2),
            // The largest batch over replication 0's queries.
            Col::info(|_, s| s[0][1].max_batch as f64)
                .show("max batch", f0)
                .metric("max_batch_pages", Info),
        ],
        rows: rows.into(),
    };
    panel.run("ablation_crss_bound", 1711, opts);
}

/// Ablation 3 — node split policies (paper §2.1): the R\* margin/overlap
/// split vs Guttman's quadratic and linear splits, measured by tree
/// quality and CRSS similarity-search performance on the same data.
pub fn ablation_split_policy(opts: &ExpOptions) {
    let d = california_like(opts.population(62_173), 1901);
    let queries = rep_query_sets(&d, opts, 1911);
    let policies = [
        SplitPolicy::RStar,
        SplitPolicy::GuttmanQuadratic,
        SplitPolicy::GuttmanLinear,
    ];
    let rows = policies.map(|p| {
        let tree = build_tree(&d, 10, 1910, Box::new(ProximityIndex), |c| {
            c.with_split_policy(p)
        });
        let info = tree_info(&tree);
        Row::new(&Setup::new(tree, queries.clone()), 20, 5.0, &[&p.name()]).info(info)
    });
    let panel = Panel {
        title: format!(
            "Ablation — split policies (set: {}, n={}, disks: 10, k=20, λ=5)",
            d.name,
            d.len()
        ),
        csv: "ablation_split_policy".into(),
        labels: &["policy"],
        keys: &["policy"],
        cols: vec![
            Col::run(CrssKind, Response(One(1912))),
            Col::derived(|s| s[0].sim().mean_nodes_per_query).metric("mean_nodes", Lower),
            Col::info(|i, _| i[0]).show("nodes", f0),
            Col::info(|i, _| i[1])
                .show("avg fill", f2)
                .metric("avg_fill", Info),
            Col::info(|_, s| mean(s, 1)).show("CRSS nodes/query", f2),
            Col::info(|_, s| mean(s, 0)).show("CRSS resp (s)", f4),
        ],
        rows: rows.into(),
    };
    panel.run("ablation_split_policy", 1911, opts);
}

/// Ablation 4 — tree construction strategies: incremental R\* insertion
/// (the paper's dynamic setting) vs STR, Morton-curve, and Hilbert-curve
/// packed bulk loads, compared on tree quality and CRSS performance.
pub fn ablation_packing(opts: &ExpOptions) {
    let d = california_like(opts.population(62_173), 2201);
    let queries = rep_query_sets(&d, opts, 2211);
    let trees = [
        (
            "incremental-R*",
            build_tree(&d, 10, 2210, Box::new(ProximityIndex), |c| c),
        ),
        ("bulk-STR", bulk_tree(&d, 2213, PackingOrder::Str)),
        ("bulk-Morton", bulk_tree(&d, 2213, PackingOrder::Morton)),
        ("bulk-Hilbert", bulk_tree(&d, 2213, PackingOrder::Hilbert)),
    ];
    let rows = trees.map(|(label, tree)| {
        let info = tree_info(&tree);
        Row::new(&Setup::new(tree, queries.clone()), 20, 5.0, &[&label]).info(info)
    });
    let panel = Panel {
        title: format!(
            "Ablation — construction strategies (set: {}, n={}, disks: 10, k=20, λ=5)",
            d.name,
            d.len()
        ),
        csv: "ablation_packing".into(),
        labels: &["construction"],
        keys: &["construction"],
        cols: vec![
            Col::run(CrssKind, Response(One(2212))),
            Col::info(|i, _| i[0]).show("nodes", f0),
            Col::info(|i, _| i[1])
                .show("avg fill", f2)
                .metric("avg_fill", Info),
            Col::info(|_, s| mean(s, 0)).show("CRSS resp (s)", f4),
        ],
        rows: rows.into(),
    };
    panel.run("ablation_packing", 2211, opts);
}

/// Extensions — the paper's "future research" directions, measured:
///
/// 1. **Shadowed disks** (RAID-1 read balancing): every page has a
///    replica half the array away; reads go to whichever copy frees
///    first.
/// 2. **Shared-memory multiprocessor**: 1 to 8 CPUs with least-loaded
///    batch dispatch, the CPU scaled down so it is the bottleneck.
/// 3. **Bulk-loaded vs incrementally built tree**: how much query I/O
///    the dynamic R\*-tree gives up against a full reorganization (which
///    the paper rules out for operational reasons).
pub fn ext_future_work(opts: &ExpOptions) {
    let d = gaussian(opts.population(50_000), 5, 1801);
    let queries = rep_query_sets(&d, opts, 1811);
    let tree = build_tree(&d, 10, 1810, Box::new(ProximityIndex), |c| c);
    let incremental = tree_info(&tree);
    let setup = Setup::new(tree, queries.clone());
    let raid = |layout| Col::run(CrssKind, Response(Two(1812, 1813))).label("layout", layout);
    let shadowed = Panel {
        title: "Extension — shadowed (mirrored) disks, CRSS, 10 disks, k=20".into(),
        csv: "ext_mirrored_disks".into(),
        labels: &["lambda"],
        keys: &["lambda"],
        cols: vec![
            raid("raid0").show("RAID-0 resp (s)", f4),
            raid("mirrored")
                .sys(mirrored(FaultPlan::none()))
                .show("mirrored resp (s)", f4),
            Col::derived(|s| (1.0 - s[1].value / s[0].value) * 100.0)
                .show("improvement", pct)
                .metric("mirror_improvement_pct", Higher),
        ],
        rows: [1.0f64, 5.0, 10.0, 20.0]
            .map(|l| Row::new(&setup, 20, l, &[&l]))
            .into(),
    };
    let cpus = [1u32, 2, 4, 8].map(|cpus| {
        let params = SystemParams {
            num_cpus: cpus,
            cpu_mips: 0.05,
            ..SystemParams::default()
        };
        Row::new(&setup, 20, 10.0, &[&cpus]).sys(Sys {
            params,
            ..Sys::default()
        })
    });
    let multiprocessor = Panel {
        title: "Extension — number of processors (CPU-bound regime, FPSS, λ=10)".into(),
        csv: "ext_multiprocessor".into(),
        labels: &["cpus"],
        keys: &["cpus"],
        cols: vec![
            Col::run(Fpss, Response(Two(1814, 1815))).show("mean resp (s)", f4),
            Col::derived(|s| s[0].sim().cpu_utilization * 100.0)
                .show("cpu util", pct)
                .metric("cpu_utilization_pct", Info),
        ],
        rows: cpus.into(),
    };
    let bulk = bulk_tree(&d, 1816, PackingOrder::Str);
    let packed = tree_info(&bulk);
    let bulk = Setup::new(bulk, queries);
    let bulk_vs_incremental = Panel {
        title: "Extension — incremental R*-tree vs STR bulk-loaded tree (CRSS, λ=5, k=20)".into(),
        csv: "ext_bulk_vs_incremental".into(),
        labels: &["tree"],
        keys: &["tree"],
        cols: vec![
            Col::info(|i, _| i[0]).show("nodes", f0),
            Col::info(|i, _| i[1]).show("avg fill", f2),
            Col::run(CrssKind, Response(One(1817))).show("mean resp (s)", f4),
        ],
        rows: vec![
            Row::new(&setup, 20, 5.0, &[&"incremental"]).info(incremental),
            Row::new(&bulk, 20, 5.0, &[&"bulk-loaded"]).info(packed),
        ],
    };
    Sweep {
        bench: "ext_future_work",
        master_seed: 1811,
        panels: vec![shadowed, multiprocessor, bulk_vs_incremental],
    }
    .run(opts);
}

#[rustfmt::skip]
const EXT_TIGHTER_THRESHOLD: Section = Section { title: "Extension 4 — MINMAXDIST threshold tightening (beyond the paper)",
    paper: "not in the paper. The k-th smallest MINMAXDIST over a wavefront also bounds D_k; with Lemma 1 it saved 42 % of CRSS's node accesses at k = 1 on uniform 2-d data when first measured, a benefit that decays by k = 5.",
    csvs: &["ext_tighter_threshold"], claims: &[
        Claim { need: Quick, csv: "ext_tighter_threshold", rows: Rows::Nth(0), stat: Stat::Values(&["saved"]), within: (37.0, 47.0), what: "node accesses saved at k = 1, uniform 2-d (%)", paper: "−42 %" },
 ] };

/// Extension — MINMAXDIST threshold tightening for CRSS.
///
/// Beyond the paper: besides Lemma 1 (the count-weighted `D_max` prefix),
/// the k-th smallest MINMAXDIST over a wavefront's MBRs also provably
/// upper-bounds `D_k` (each sibling MBR guarantees one distinct object
/// within its `D_mm`). Taking the minimum of the two bounds shrinks the
/// initial query sphere; this measures how many node accesses and how
/// much response time that saves across dimensionalities.
pub fn ext_tighter_threshold(opts: &ExpOptions) {
    let datasets = [
        uniform(opts.population(50_000), 2, 2101),
        gaussian(opts.population(50_000), 5, 2102),
        gaussian(opts.population(50_000), 10, 2103),
    ];
    let mut rows = Vec::new();
    for d in &datasets {
        let setup = Setup::build(d, 10, 2110, 2111, opts);
        rows.extend([1usize, 2, 5, 20].map(|k| Row::new(&setup, k, 5.0, &[&d.name, &k])));
    }
    let tight = || {
        Arm::crss("CRSS+mm", |am, q, k| {
            Crss::new(am, q, k).with_minmax_threshold()
        })
    };
    let arms = || [(Arm::from(CrssKind), "stock"), (tight(), "tight")];
    let mut cols: Vec<Col> = arms()
        .map(|(a, v)| {
            Col::run(a, Nodes)
                .label("variant", v)
                .show(format!("{v} nodes"), f2)
        })
        .into();
    cols.extend(arms().map(|(a, v)| Col::run(a, Response(Two(2112, 2113))).label("variant", v)));
    cols.push(
        Col::derived(|s| (1.0 - s[1].nodes as f64 / s[0].nodes as f64) * 100.0)
            .show("saved", pct)
            .metric("nodes_saved_pct", Higher),
    );
    cols.extend(
        ["stock", "tight"]
            .into_iter()
            .enumerate()
            .map(|(c, v)| Col::info(move |_, s| mean(s, 2 + c)).show(format!("{v} resp (s)"), f4)),
    );
    let panel = Panel {
        title: "Extension — CRSS with MINMAXDIST threshold (λ=5, 10 disks)".into(),
        csv: "ext_tighter_threshold".into(),
        labels: &["dataset", "k"],
        keys: &["dataset", "k"],
        cols,
        rows,
    };
    panel.run("ext_tighter_threshold", 2111, opts);
}

/// Extension — CRSS over the SS-tree (the paper's future-work item:
/// "the application of the algorithm on other access methods for
/// similarity search, like SS-tree ...").
///
/// The same data, the same array, the same algorithms — only the access
/// method changes: MBRs (R\*-tree) vs bounding spheres (SS-tree, with
/// nearly double the directory fan-out but no MINMAXDIST guarantee).
pub fn ext_sstree(opts: &ExpOptions) {
    let mut rows = Vec::new();
    for dim in [2usize, 5, 10] {
        let d = gaussian(opts.population(50_000), dim, 2300 + dim as u64);
        let queries = rep_query_sets(&d, opts, 2310);
        let rstar = build_tree(&d, 10, 2311, Box::new(ProximityIndex), |c| c);
        let page = experiment_page_size(dim);
        let store = Arc::new(ArrayStore::with_page_size(10, 1449, page, 2311));
        let mut ss = SsTree::create(store, SsConfig::with_page_size(dim, page)).expect("SS-tree");
        for (i, p) in d.points.iter().enumerate() {
            ss.insert(p.clone(), i as u64).expect("insert");
        }
        ss.store().reset_stats();
        let setups = [Setup::new(rstar, queries.clone()), Setup::new(ss, queries)];
        let row = |(s, index): (Arc<Setup>, &str)| Row::new(&s, 20, 5.0, &[&d.name, &index]);
        rows.extend(zip(setups, ["R*-tree", "SS-tree"]).map(row));
    }
    let nodes = |a: AlgorithmKind| {
        Col::run(a, Nodes)
            .label("algorithm", a)
            .show(format!("{a} nodes"), f2)
    };
    let panel = Panel {
        title: "Extension — R*-tree vs SS-tree under CRSS (k=20, λ=5, 10 disks)".into(),
        csv: "ext_sstree".into(),
        labels: &["dataset", "index"],
        keys: &["dataset", "index"],
        cols: vec![
            nodes(CrssKind),
            nodes(Bbss),
            Col::run(CrssKind, Response(Two(2301, 2302)))
                .label("algorithm", CrssKind)
                .show("CRSS resp (s)", f4),
        ],
        rows,
    };
    panel.run("ext_sstree", 2310, opts);
}

/// Extension — analytical model validation (the paper's future-work item
/// "estimating the response time of a query" by analysis).
///
/// Predicted vs. measured, side by side, through the same
/// [`predict_knn`] entry point that powers `sqda estimate`, `sqda
/// explain` and the serve EXPLAIN verb: expected WOPTSS node accesses
/// from the Minkowski-sum selectivity model against the logical
/// executor, and mean CRSS response time from the M/M/1-style queueing
/// model against the event-driven simulator — the exact numbers a serve
/// EXPLAIN reply would carry as `predicted_*` for this tree.
pub fn analysis_validation(opts: &ExpOptions) {
    let d = uniform(opts.population(50_000), 2, 2001);
    let tree = build_tree(&d, 10, 2010, Box::new(ProximityIndex), |c| c);
    let profile = TreeProfile::measure(&tree).expect("profile");
    let (params, height) = (SystemParams::with_disks(10), tree.height());
    let predict =
        |k, lambda| predict_knn(&profile, &params, height, k, lambda).expect("non-degenerate");
    let setup = Setup::new(tree, rep_query_sets(&d, opts, 2011));
    // The λ of the access prediction only affects its queueing half.
    let accesses = [1usize, 10, 50, 100, 400]
        .map(|k| Row::new(&setup, k, 0.0, &[&k]).info(vec![predict(k, 1.0).accesses]));
    let responses = [1.0f64, 2.0, 5.0, 10.0, 20.0].map(|l| {
        let p = predict(20, l);
        Row::new(&setup, 20, l, &[&l, &20])
            .info(vec![p.utilization, p.response_s.unwrap_or(f64::NAN)])
    });
    let node_accesses = Panel {
        title: format!(
            "Analysis — predicted vs measured node accesses (set: {}, n={})",
            d.name,
            d.len()
        ),
        csv: "analysis_node_accesses".into(),
        labels: &["k"],
        keys: &["k"],
        cols: vec![
            Col::info(|i, _| i[0]).show("predicted", f2),
            Col::run(Woptss, Nodes).show("measured (WOPTSS)", f2),
            Col::info(|i, s| i[0] / mean(s, 1))
                .show("ratio", f2)
                .metric("predicted_over_measured", Info),
        ],
        rows: accesses.into(),
    };
    let response_time = Panel {
        title: "Analysis — predicted vs simulated CRSS response (k=20, analytic model)".into(),
        csv: "analysis_response_time".into(),
        labels: &["lambda", "k"],
        keys: &["lambda"],
        cols: vec![
            Col::info(|i, _| i[0]).show("rho", f2),
            Col::info(|i, _| i[1]).show("predicted (s)", f4),
            Col::run(CrssKind, Response(One(2012))).show("simulated (s)", f4),
            Col::info(|i, s| i[1] / mean(s, 2)).show("ratio", f2),
            Col::info(|i, s| i[1] - mean(s, 2)).metric("residual_response_s", Info),
        ],
        rows: responses.into(),
    };
    Sweep {
        bench: "analysis_validation",
        master_seed: 2011,
        panels: vec![node_accesses, response_time],
    }
    .run(opts);
}

/// Fault sweep: mean response time vs. number of failed disks for all
/// four algorithms on a shadowed 10-disk array (λ = 5, k = 10).
///
/// Not a figure from the paper — its Section 2 shadowed-disk
/// organization motivates it. With disks mirrored in pairs, reads
/// aimed at a failed disk are served by the shadow partner, so mean
/// response time should degrade gracefully (roughly the failed disks'
/// load folded onto their partners) rather than collapse. Queries whose
/// every replica is gone abort with a typed `Unavailable` error and are
/// counted in the `aborted` column, not averaged into response times.
///
/// Each algorithm's aborted, completed and degraded-read counts go to
/// the fragment from replication 0 (the master stream), as exact
/// integers; response times are replicated means with confidence
/// intervals.
pub fn fault_sweep(opts: &ExpOptions) {
    type Count = fn(&SimulationReport) -> f64;
    let counts: &[usize] = opts.pick(&[0, 2, 4], &[0, 1, 2, 3, 4]);
    let d = gaussian(opts.population(20_000), 2, 1301);
    let setup = Setup::build(&d, 10, 1302, 1303, opts);
    // A fresh seed per count picks which disks die; count = 0 is the
    // empty plan, i.e. the fault-free mirrored baseline. The plan is
    // configuration, not noise, so it is fixed across replications.
    let rows = counts.iter().map(|&c| {
        let plan = FaultPlan::fail_disks(c, SimTime::ZERO, 10, 1304 + c as u64);
        Row::new(&setup, 10, 5.0, &[&c]).sys(mirrored(plan))
    });
    let mut cols = Vec::new();
    for (i, a) in AlgorithmKind::ALL.into_iter().enumerate() {
        cols.push(
            Col::run(a, Response(One(1305)))
                .label("algorithm", a)
                .show(format!("{a}(s)"), f4),
        );
        let counters: [(_, Count); 3] = [
            ("aborted_queries", |r| r.failed as f64),
            ("completed", |r| r.completed as f64),
            ("degraded_reads", |r| r.degraded_reads as f64),
        ];
        for (name, count) in counters {
            let counter = Col::info(move |_, s| count(s[0][4 * i].sim()));
            cols.push(counter.label("algorithm", a).metric(name, Info));
        }
    }
    let rep0 = |count: Count| {
        move |_: &[f64], s: &[Vec<Sample>]| {
            s[0].iter().filter_map(|c| c.sim.as_ref()).map(count).sum()
        }
    };
    cols.push(Col::info(rep0(|r| r.degraded_reads as f64)).show("degraded_reads", f0));
    cols.push(Col::info(rep0(|r| r.failed as f64)).show("aborted", f0));
    let panel = Panel {
        title: format!(
            "Fault sweep — mean response time vs failed disks (set: {}, n={}, 10 shadowed disks, k=10, λ=5)",
            d.name,
            d.len()
        ),
        csv: "fault_sweep".into(),
        labels: &["failed"],
        keys: &["failed"],
        cols,
        rows: rows.collect(),
    };
    panel.run("fault_sweep", 1303, opts);
}

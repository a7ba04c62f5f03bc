//! Exactness of the four algorithms where ties are the rule, not the
//! exception: seeded trees over dims {2, 3, 5, 10} whose points sit on a
//! quarter-unit lattice with exact duplicates, so equal distances, equal
//! `D_min`s and equal `D_max`s occur in every query. Answers are checked
//! against brute force bit for bit (`dist_sq` by `to_bits`, object id
//! breaking ties), and the work counters — nodes, batches, largest batch,
//! `cpu_instructions` — against goldens recorded before the per-query
//! scratch, in-place candidate reduction and Lemma 1 selection replaced
//! the allocating versions. `SQDA_RECORD_GOLDENS=1` prints the table.
//!
//! The generator is local (SplitMix64), so the goldens hold whichever
//! `rand` the workspace links.

use sqda_core::{exec::run_query, AlgorithmKind};
use sqda_geom::Point;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_storage::ArrayStore;
use std::sync::Arc;

const DIMS: [usize; 4] = [2, 3, 5, 10];
const KS: [usize; 3] = [1, 10, 50];
/// CRSS's activation bound `u` is the array's disk count.
const US: [u32; 3] = [1, 3, 8];
const POINTS: usize = 700;

struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        let out = sqda_simkernel::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Lattice points: whole units for half of them, quarter units for the
/// rest, and every tenth point an exact copy of its predecessor.
fn lattice_points(dim: usize, seed: u64) -> Vec<Point> {
    let span = if dim <= 3 { 6 } else { 3 };
    let mut mix = Mix(seed);
    let mut points: Vec<Point> = Vec::with_capacity(POINTS);
    for i in 0..POINTS {
        if i % 10 == 9 {
            points.push(points[i - 1].clone());
            continue;
        }
        let coords = (0..dim)
            .map(|_| {
                if i % 2 == 0 {
                    mix.below(span + 1) as f64
                } else {
                    mix.below(4 * span + 1) as f64 / 4.0
                }
            })
            .collect();
        points.push(Point::new(coords));
    }
    points
}

/// A lattice node, a cell centre, a data point, a point outside the data
/// and two quarter-unit points.
fn queries(dim: usize, points: &[Point], seed: u64) -> Vec<Point> {
    let mut mix = Mix(seed ^ 0xabcd);
    let mut out = vec![
        Point::splat(dim, 2.0),
        Point::splat(dim, 1.5),
        points[mix.below(points.len() as u64) as usize].clone(),
        Point::splat(dim, -1.25),
    ];
    for _ in 0..2 {
        out.push(Point::new(
            (0..dim).map(|_| mix.below(13) as f64 / 4.0).collect(),
        ));
    }
    out
}

fn build_tree(points: &[Point], dim: usize, disks: u32) -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::new(disks, 1449, 42));
    let config = RStarConfig::new(dim).with_max_entries(8);
    let mut tree = RStarTree::create(store, config, Box::new(ProximityIndex)).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree
}

/// The k nearest by (`dist_sq`, object id), as `(dist_sq bits, id)`.
fn brute_force(points: &[Point], q: &Point, k: usize) -> Vec<(u64, u64)> {
    let mut all: Vec<(f64, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (q.dist_sq(p), i as u64))
        .collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    all.truncate(k);
    all.into_iter().map(|(d, id)| (d.to_bits(), id)).collect()
}

/// Summed over a configuration's queries: nodes visited, batches, largest
/// batch (the maximum, not a sum) and `cpu_instructions`.
type Work = [u64; 4];

/// `(dim, u, k)` → work of BBSS, FPSS, CRSS, WOPTSS
/// ([`AlgorithmKind::ALL`] order).
type Row = (usize, u32, usize, [Work; 4]);

fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    for dim in DIMS {
        let points = lattice_points(dim, 1000 + dim as u64);
        for u in US {
            let tree = build_tree(&points, dim, u);
            let queries = queries(dim, &points, u as u64);
            for k in KS {
                let mut work = [[0u64; 4]; 4];
                for q in &queries {
                    let want = brute_force(&points, q, k);
                    for (a, kind) in AlgorithmKind::ALL.into_iter().enumerate() {
                        let mut algo = kind.build(&tree, q.clone(), k).unwrap();
                        let run = run_query(&tree, algo.as_mut()).unwrap();
                        let got: Vec<(u64, u64)> = run
                            .results
                            .iter()
                            .map(|n| (n.dist_sq.to_bits(), n.object.0))
                            .collect();
                        assert_eq!(got, want, "{kind} dim {dim} u {u} k {k} at {q}");
                        for n in &run.results {
                            assert_eq!(n.point, points[n.object.0 as usize], "{kind}");
                        }
                        work[a][0] += run.nodes_visited;
                        work[a][1] += run.batches;
                        work[a][2] = work[a][2].max(run.max_batch as u64);
                        work[a][3] += run.cpu_instructions;
                    }
                }
                rows.push((dim, u, k, work));
            }
        }
    }
    rows
}

#[test]
fn answers_match_brute_force_and_work_matches_goldens() {
    let rows = measure();
    if std::env::var_os("SQDA_RECORD_GOLDENS").is_some() {
        for (dim, u, k, work) in &rows {
            println!("    ({dim}, {u}, {k}, {work:?}),");
        }
        return;
    }
    assert_eq!(rows.len(), GOLDEN.len());
    for (got, want) in rows.iter().zip(GOLDEN) {
        assert_eq!(got, want, "(dim, u, k, [BBSS, FPSS, CRSS, WOPTSS])");
    }
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (2, 1, 1, [[45, 45, 1, 1358], [127, 24, 15, 2601], [46, 46, 1, 1168], [43, 24, 4, 664]]),
    (2, 1, 10, [[71, 71, 1, 1779], [138, 24, 15, 2879], [75, 75, 1, 1769], [59, 24, 9, 1052]]),
    (2, 1, 50, [[151, 151, 1, 3273], [246, 24, 32, 6008], [157, 157, 1, 3336], [136, 24, 27, 3091]]),
    (2, 3, 1, [[44, 44, 1, 1337], [135, 24, 28, 2860], [69, 29, 3, 1838], [44, 24, 10, 692]]),
    (2, 3, 10, [[74, 74, 1, 1758], [151, 24, 28, 3283], [86, 35, 3, 2265], [64, 24, 10, 1137]]),
    (2, 3, 50, [[165, 165, 1, 3452], [235, 24, 33, 5780], [158, 63, 3, 4216], [146, 24, 28, 3364]]),
    (2, 8, 1, [[35, 35, 1, 1215], [145, 24, 19, 3145], [113, 25, 8, 2777], [35, 24, 3, 492]]),
    (2, 8, 10, [[87, 87, 1, 2084], [152, 24, 19, 3323], [128, 27, 8, 3059], [72, 24, 12, 1391]]),
    (2, 8, 50, [[155, 155, 1, 3325], [237, 24, 30, 5789], [179, 35, 8, 5078], [137, 24, 19, 3181]]),
    (3, 1, 1, [[47, 47, 1, 1362], [231, 24, 26, 5535], [51, 51, 1, 1277], [47, 24, 6, 756]]),
    (3, 1, 10, [[104, 104, 1, 2286], [252, 24, 28, 6181], [95, 95, 1, 1906], [84, 24, 10, 1621]]),
    (3, 1, 50, [[256, 256, 1, 4909], [423, 24, 56, 11669], [265, 265, 1, 4907], [219, 24, 28, 5277]]),
    (3, 3, 1, [[53, 53, 1, 1369], [208, 24, 23, 4841], [70, 32, 3, 2672], [48, 24, 7, 743]]),
    (3, 3, 10, [[97, 97, 1, 2107], [238, 24, 28, 5743], [100, 44, 3, 3149], [85, 24, 13, 1611]]),
    (3, 3, 50, [[224, 224, 1, 4253], [383, 24, 56, 10486], [203, 82, 3, 5388], [194, 24, 28, 4580]]),
    (3, 8, 1, [[48, 48, 1, 1410], [217, 24, 24, 5088], [123, 24, 8, 3954], [46, 24, 7, 727]]),
    (3, 8, 10, [[119, 119, 1, 2460], [271, 24, 34, 6764], [146, 31, 8, 4927], [103, 24, 14, 2073]]),
    (3, 8, 50, [[271, 271, 1, 5058], [429, 24, 57, 11885], [233, 46, 8, 7929], [216, 24, 28, 5209]]),
    (5, 1, 1, [[187, 187, 1, 3617], [562, 24, 124, 16551], [176, 176, 1, 3363], [159, 24, 24, 3606]]),
    (5, 1, 10, [[388, 388, 1, 7397], [685, 24, 125, 20803], [359, 359, 1, 6737], [301, 24, 48, 7865]]),
    (5, 1, 50, [[628, 628, 1, 12417], [858, 24, 126, 26384], [565, 565, 1, 11028], [519, 24, 111, 15040]]),
    (5, 3, 1, [[151, 151, 1, 3198], [611, 24, 124, 18162], [148, 62, 3, 5023], [131, 24, 24, 2914]]),
    (5, 3, 10, [[318, 318, 1, 6168], [682, 24, 125, 20575], [296, 113, 3, 7966], [269, 24, 48, 6959]]),
    (5, 3, 50, [[606, 606, 1, 11674], [882, 24, 126, 27106], [567, 212, 3, 14384], [540, 24, 111, 15842]]),
    (5, 8, 1, [[186, 186, 1, 3787], [599, 24, 124, 17647], [187, 38, 8, 8025], [155, 24, 24, 3482]]),
    (5, 8, 10, [[381, 381, 1, 7423], [681, 24, 125, 20615], [330, 56, 8, 11133], [301, 24, 48, 7895]]),
    (5, 8, 50, [[622, 622, 1, 12161], [857, 24, 126, 26365], [524, 80, 8, 16272], [512, 24, 111, 14824]]),
    (10, 1, 1, [[389, 389, 1, 8049], [808, 24, 111, 25844], [385, 385, 1, 7962], [336, 24, 70, 9826]]),
    (10, 1, 10, [[701, 701, 1, 14552], [808, 24, 111, 25844], [708, 708, 1, 14643], [676, 24, 106, 21566]]),
    (10, 1, 50, [[791, 791, 1, 16459], [810, 24, 111, 25902], [795, 795, 1, 16534], [785, 24, 110, 25137]]),
    (10, 3, 1, [[426, 426, 1, 8746], [809, 24, 111, 25873], [410, 154, 3, 11460], [383, 24, 70, 11347]]),
    (10, 3, 10, [[690, 690, 1, 14265], [809, 24, 111, 25873], [689, 250, 3, 17848], [679, 24, 106, 21653]]),
    (10, 3, 50, [[782, 782, 1, 16221], [810, 24, 111, 25902], [782, 281, 3, 20293], [778, 24, 110, 24874]]),
    (10, 8, 1, [[418, 418, 1, 8596], [808, 24, 111, 25844], [391, 67, 8, 13766], [336, 24, 70, 9775]]),
    (10, 8, 10, [[717, 717, 1, 14864], [809, 24, 111, 25873], [697, 106, 8, 20304], [691, 24, 106, 22055]]),
    (10, 8, 50, [[795, 795, 1, 16531], [810, 24, 111, 25902], [794, 120, 8, 23137], [789, 24, 110, 25257]]),
];

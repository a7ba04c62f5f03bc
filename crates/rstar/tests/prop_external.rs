//! Property-based tests: spilling never changes what the out-of-core
//! bulk builder writes. For arbitrary point sets of 2 to 5 dimensions,
//! page sizes, run capacities and sort parallelism, a build forced
//! through spilled runs, multi-pass merges and (above two dimensions)
//! slabs that spill and are sorted again writes the very pages that the
//! same points built unspilled — through the in-memory tiler — write;
//! and the tree answers k-NN like brute force.

use sqda_core::best_first_knn;
use sqda_geom::prop::{self, check};
use sqda_geom::{rng::Rng, Point};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{ExternalBuildOptions, ExternalBuildReport, RStarConfig, RStarTree, SliceSource};
use sqda_storage::{ArrayStore, PageStore};
use std::cell::Cell;
use std::sync::Arc;

const CASES: u32 = 32;

/// Up to `len.end - 1` points of `dim` coordinates in [-1000, 1000),
/// ids in input order. Half the sets sit on a lattice of eight values
/// per axis, so sort keys tie and only the stable tie order decides
/// which tile a point joins.
fn points(
    rng: &mut Rng,
    size: usize,
    dim: usize,
    len: std::ops::Range<usize>,
) -> Vec<(Point, u64)> {
    let lattice = rng.gen_bool(0.5);
    (0..prop::len(rng, size, len))
        .map(|i| {
            let c = (0..dim)
                .map(|_| {
                    if lattice {
                        f64::from(rng.gen_range(0..8u32)) * 250.0 - 1000.0
                    } else {
                        rng.gen_range(-1000.0..1000.0)
                    }
                })
                .collect();
            (Point::new(c), i as u64)
        })
        .collect()
}

/// An external build with merge fan-in 3 into a fresh 4-disk store.
fn build_external(
    pts: &[(Point, u64)],
    page: usize,
    run_capacity: usize,
    jobs: usize,
) -> (RStarTree<ArrayStore>, ExternalBuildReport) {
    let dim = pts.first().map_or(2, |(p, _)| p.dim());
    let scratch = Arc::new(ArrayStore::with_page_size(4, 1449, page, 9));
    let opts = ExternalBuildOptions {
        run_capacity,
        merge_fanin: 3,
        jobs,
    };
    RStarTree::bulk_load_external_stats(
        Arc::new(ArrayStore::with_page_size(4, 1449, page, 42)),
        RStarConfig::with_page_size(dim, page),
        Box::new(ProximityIndex),
        &SliceSource::new(pts),
        &scratch,
        &opts,
    )
    .unwrap()
}

/// A spilled build writes the same bytes, on the same disks, as the
/// unspilled build of the same points (a run capacity of at least `n`
/// sends the whole input through the in-memory tiler), for any point
/// set, dimensionality, page size, run capacity and parallelism.
#[test]
fn external_build_matches_in_memory() {
    let gen = |rng: &mut Rng, size| {
        let dim = rng.gen_range(2..6usize);
        let pts = points(rng, size, dim, 1..1500);
        (
            pts,
            rng.gen_range(512..4097usize),
            rng.gen_range(16..256usize),
            rng.gen_range(1..4usize),
        )
    };
    let nested = Cell::new(0);
    check(
        "external_build_matches_in_memory",
        CASES,
        gen,
        |(pts, page, run_capacity, jobs)| {
            let (mem, _) = build_external(&pts, page, pts.len(), 1);
            let (ext, report) = build_external(&pts, page, run_capacity, jobs);
            // A slab spilled and sorted again: more runs than the first
            // axis's sort alone forms.
            let run_cap = run_capacity.max(2 * ext.config().max_leaf_entries);
            if report.runs > pts.len().div_ceil(run_cap) as u64 {
                nested.set(nested.get() + 1);
            }

            assert_eq!(mem.root_page(), ext.root_page());
            assert_eq!(mem.root_level(), ext.root_level());
            let mut frontier = vec![mem.root_page()];
            while let Some(page) = frontier.pop() {
                assert_eq!(
                    mem.store().read(page).unwrap(),
                    ext.store().read(page).unwrap(),
                    "page {page:?} differs"
                );
                assert_eq!(
                    mem.store().placement(page).unwrap().disk,
                    ext.store().placement(page).unwrap().disk,
                    "page {page:?} placed on a different disk"
                );
                let node = mem.read_node(page).unwrap();
                if !node.is_leaf() {
                    frontier.extend(node.internal_iter().map(|e| e.child));
                }
            }
        },
    );
    assert!(
        nested.get() > 0,
        "no case spilled a slab: the recursive external STR went unchecked"
    );
}

/// Whatever the spill pattern, the external tree answers k-NN exactly
/// like brute force and keeps its invariants.
#[test]
fn external_tree_answers_like_brute_force() {
    let gen = |rng: &mut Rng, size| {
        let dim = rng.gen_range(2..6usize);
        let pts = points(rng, size, dim, 1..600);
        let q = Point::new((0..dim).map(|_| rng.gen_range(-1100.0..1100.0)).collect());
        (
            pts,
            rng.gen_range(512..4097usize),
            rng.gen_range(16..96usize),
            q,
            rng.gen_range(1..15usize),
        )
    };
    check(
        "external_tree_answers_like_brute_force",
        CASES,
        gen,
        |(pts, page, run_capacity, q, k)| {
            let (tree, _) = build_external(&pts, page, run_capacity, 2);
            tree.validate().unwrap().unwrap();
            assert_eq!(tree.num_objects() as usize, pts.len());

            let got = best_first_knn(&tree, &q, k).unwrap();
            let mut want: Vec<f64> = pts.iter().map(|(p, _)| q.dist_sq(p)).collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            want.truncate(k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.dist_sq - w).abs() < 1e-9, "got {} want {w}", g.dist_sq);
            }
        },
    );
}

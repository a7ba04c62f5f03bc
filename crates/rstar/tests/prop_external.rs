//! Property-based tests: the out-of-core bulk builder is equivalent to
//! the in-memory one for arbitrary point sets, run capacities and
//! packing orders — byte-identical pages under trailing placement, and
//! the same answers as brute force regardless of how many runs the
//! build spilled.

use sqda_core::best_first_knn;
use sqda_geom::prop::{self, check};
use sqda_geom::{rng::Rng, Point};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{
    ExternalBuildOptions, PackingOrder, PlacementMode, RStarConfig, RStarTree, SliceSource,
};
use sqda_storage::{ArrayStore, PageStore};
use std::sync::Arc;

const PAGE: usize = 1024;
const CASES: u32 = 32;

/// Up to `len.end - 1` points in [-1000, 1000)², ids in input order.
fn points(rng: &mut Rng, size: usize, len: std::ops::Range<usize>) -> Vec<(Point, u64)> {
    (0..prop::len(rng, size, len))
        .map(|i| {
            let c = vec![
                rng.gen_range(-1000.0..1000.0),
                rng.gen_range(-1000.0..1000.0),
            ];
            (Point::new(c), i as u64)
        })
        .collect()
}

fn order(rng: &mut Rng) -> PackingOrder {
    [
        PackingOrder::Str,
        PackingOrder::Morton,
        PackingOrder::Hilbert,
    ][rng.gen_range(0..3usize)]
}

fn build_external(
    pts: &[(Point, u64)],
    order: PackingOrder,
    run_capacity: usize,
    jobs: usize,
    placement: PlacementMode,
) -> RStarTree<ArrayStore> {
    let scratch = Arc::new(ArrayStore::with_page_size(4, 1449, PAGE, 9));
    let source = SliceSource::new(pts);
    let opts = ExternalBuildOptions {
        run_capacity,
        merge_fanin: 3,
        jobs,
        order,
        placement,
    };
    RStarTree::bulk_load_external(
        Arc::new(ArrayStore::with_page_size(4, 1449, PAGE, 42)),
        RStarConfig::with_page_size(2, PAGE),
        Box::new(ProximityIndex),
        &source,
        &scratch,
        &opts,
    )
    .unwrap()
}

/// Under trailing placement the external build writes the very same
/// bytes as the in-memory build, for any point set, any packing order,
/// any run capacity and any parallelism.
#[test]
fn external_build_matches_in_memory() {
    let gen = |rng: &mut Rng, size| {
        let pts = points(rng, size, 1..400);
        (
            pts,
            order(rng),
            rng.gen_range(16..128usize),
            rng.gen_range(1..4usize),
        )
    };
    check(
        "external_build_matches_in_memory",
        CASES,
        gen,
        |(pts, order, run_capacity, jobs)| {
            let mem = RStarTree::bulk_load_ordered(
                Arc::new(ArrayStore::with_page_size(4, 1449, PAGE, 42)),
                RStarConfig::with_page_size(2, PAGE),
                Box::new(ProximityIndex),
                pts.clone(),
                order,
            )
            .unwrap();
            let ext = build_external(&pts, order, run_capacity, jobs, PlacementMode::Trailing);

            assert_eq!(mem.root_page(), ext.root_page());
            assert_eq!(mem.root_level(), ext.root_level());
            let mut frontier = vec![mem.root_page()];
            while let Some(page) = frontier.pop() {
                assert_eq!(
                    mem.store().read(page).unwrap(),
                    ext.store().read(page).unwrap(),
                    "page {page:?} differs"
                );
                let node = mem.read_node(page).unwrap();
                if !node.is_leaf() {
                    frontier.extend(node.internal_iter().map(|e| e.child));
                }
            }
        },
    );
}

/// Whatever the spill pattern or placement mode, the external tree
/// answers k-NN exactly like brute force and keeps its invariants.
#[test]
fn external_tree_answers_like_brute_force() {
    let gen = |rng: &mut Rng, size| {
        let pts = points(rng, size, 1..300);
        let placement = if rng.gen_bool(0.5) {
            PlacementMode::SiblingStripe
        } else {
            PlacementMode::Trailing
        };
        let q = Point::new(vec![
            rng.gen_range(-1100.0..1100.0),
            rng.gen_range(-1100.0..1100.0),
        ]);
        (
            pts,
            order(rng),
            rng.gen_range(16..96usize),
            placement,
            q,
            rng.gen_range(1..15usize),
        )
    };
    check(
        "external_tree_answers_like_brute_force",
        CASES,
        gen,
        |(pts, order, run_capacity, placement, q, k)| {
            let tree = build_external(&pts, order, run_capacity, 2, placement);
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

//! Pins the query-visible behaviour of the node hot path.
//!
//! The flat node layout, the `Arc`-shared cache and the reusable scratch
//! heap are pure representation changes: every answer, every tie-break
//! and every I/O counter must be bit-identical to the entry-based
//! layout. This test freezes a seeded 2k-object tree and asserts the
//! exact k-NN results (as an FNV-1a digest over `(object, dist_sq)`
//! pairs) and the exact [`IoStats`] a cold-cache query batch produces.
//! Any drift in traversal order, metric arithmetic or cache accounting
//! shows up here as a changed constant.

use sqda_core::best_first_knn;
use sqda_geom::Point;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_storage::{ArrayStore, NodeCache, PageStore};
use std::sync::Arc;

const OBJECTS: usize = 2000;
const QUERIES: usize = 20;
const K: usize = 10;

fn build_tree() -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::with_page_size(10, 1449, 1024, 1));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::with_page_size(2, 1024),
        Box::new(ProximityIndex),
    )
    .unwrap();
    for i in 0..OBJECTS {
        let x = ((i * 7919) % 2003) as f64 * 0.5;
        let y = ((i * 104_729) % 1999) as f64 * 0.25;
        tree.insert(Point::new(vec![x, y]), i as u64).unwrap();
    }
    tree
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn knn_results_and_io_stats_are_pinned() {
    let mut tree = build_tree();
    tree.set_node_cache(Arc::new(NodeCache::new(8192)));
    tree.store().reset_stats();

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut pairs = 0usize;
    let mut first5: Vec<(u64, u64)> = Vec::new();
    for i in 0..QUERIES {
        let q = Point::new(vec![
            (i * 53 % 101) as f64 * 9.0,
            (i * 31 % 97) as f64 * 4.7,
        ]);
        let neighbors = best_first_knn(&tree, &q, K).unwrap();
        assert_eq!(neighbors.len(), K);
        for n in &neighbors {
            hash = fnv1a(&n.object.0.to_le_bytes(), hash);
            hash = fnv1a(&n.dist_sq.to_bits().to_le_bytes(), hash);
            if first5.len() < 5 {
                first5.push((n.object.0, n.dist_sq.to_bits()));
            }
            pairs += 1;
        }
    }

    assert_eq!(pairs, QUERIES * K);
    // First neighbours of query 0 at (0, 0): object 0 sits exactly on
    // the query point.
    assert_eq!(
        first5,
        [
            (0, 0),
            (64, 4650400372597194752),
            (279, 4656880344375492608),
            (128, 4659407571851935744),
            (494, 4661092161104642048),
        ]
    );
    assert_eq!(hash, 0x2cbe_4ec1_73df_2a5f, "k-NN answer stream drifted");

    let io = tree.io_stats();
    assert_eq!(io.reads, 43, "physical reads drifted");
    assert_eq!(io.writes, 0, "queries must not write");
    assert_eq!(io.cache_hits, 44, "cache hit accounting drifted");
    assert_eq!(io.cache_misses, 43, "cache miss accounting drifted");
    assert_eq!(
        io.cache_misses, io.reads,
        "every miss is exactly one physical read"
    );
}

//! Parallel similarity *range* query processing.
//!
//! The paper (Section 3) contrasts k-NN with the range query: a range
//! query's region is fixed up front, so after a node is read every
//! relevant child is known immediately and the disks hosting them can all
//! be activated in parallel — visiting order does not matter. This module
//! implements that "easy case" as a batch state machine so range queries
//! run under the same executors (and timing model) as the k-NN
//! algorithms.

use crate::access::{AccessMethod, IndexNode};
use crate::algo::{BatchResult, Neighbor, SimilaritySearch, Step};
use sqda_geom::{Point, Sphere};
use sqda_rstar::ObjectId;
use sqda_simkernel::cpu_instructions_for_batch;
use sqda_storage::PageId;

/// A parallel range query: all objects within `radius` of the center.
///
/// Implements [`SimilaritySearch`] for executor compatibility; its
/// "results" are every qualifying object, sorted by distance (there is no
/// `k`). A center whose dimensionality differs from the tree's fails the
/// query with [`crate::QueryError::Invariant`] once the root is read.
pub struct RangeSearch {
    sphere: Sphere,
    root: PageId,
    hits: Vec<Neighbor>,
    /// Batch-kernel scratch: per-node distance vector, reused across
    /// batches.
    dists: Vec<f64>,
}

impl RangeSearch {
    /// Prepares a range query with the given radius (Definition 1:
    /// `dist(P_q, x) ≤ ε`).
    pub fn new(am: &(impl AccessMethod + ?Sized), center: Point, radius: f64) -> Self {
        Self {
            sphere: Sphere::new(center, radius),
            root: am.root_page(),
            hits: Vec::new(),
            dists: Vec::new(),
        }
    }
}

impl SimilaritySearch for RangeSearch {
    fn start(&mut self) -> Step {
        Step::Fetch(vec![self.root])
    }

    fn on_fetched(&mut self, nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult {
        let mut scanned = 0u64;
        let mut pages = Vec::new();
        for (_, node) in nodes.drain(..) {
            if let Some(msg) = node.dim_mismatch(self.sphere.center().coords()) {
                // Dropping the drain empties the rest of the batch.
                return BatchResult {
                    next: Step::Invalid(msg),
                    cpu_instructions: 0,
                };
            }
            match node {
                IndexNode::Leaf(leaf) => {
                    scanned += leaf.len() as u64;
                    // One batch-kernel call per node; only qualifying
                    // entries materialise a Point.
                    leaf.dist_sq_into(self.sphere.center().coords(), &mut self.dists);
                    for i in 0..leaf.len() {
                        let dist_sq = self.dists[i];
                        if dist_sq <= self.sphere.radius_sq() {
                            self.hits.push(Neighbor {
                                object: ObjectId(leaf.id(i)),
                                point: Point::from(leaf.point(i)),
                                dist_sq,
                            });
                        }
                    }
                }
                IndexNode::Internal(block) => {
                    scanned += block.len() as u64;
                    block.min_dist_sq_into(self.sphere.center().coords(), &mut self.dists);
                    pages.extend(
                        (0..block.len())
                            .filter(|&i| self.dists[i] <= self.sphere.radius_sq())
                            .map(|i| block.child(i)),
                    );
                }
            }
        }
        let sorted = pages.len() as u64;
        let next = if pages.is_empty() {
            Step::Done
        } else {
            Step::Fetch(pages)
        };
        BatchResult {
            next,
            cpu_instructions: cpu_instructions_for_batch(scanned, sorted),
        }
    }

    fn results(&self) -> Vec<Neighbor> {
        let mut v = self.hits.clone();
        v.sort_by(|a, b| {
            a.dist_sq
                .partial_cmp(&b.dist_sq)
                .expect("distances are finite")
                .then(a.object.cmp(&b.object))
        });
        v
    }

    fn name(&self) -> &'static str {
        "RANGE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_query;
    use sqda_geom::rng::Rng;
    use sqda_rstar::decluster::ProximityIndex;
    use sqda_rstar::{RStarConfig, RStarTree};
    use sqda_storage::ArrayStore;
    use std::sync::Arc;

    fn build(n: usize, seed: u64) -> (RStarTree<ArrayStore>, Vec<Point>) {
        let store = Arc::new(ArrayStore::new(4, 1449, seed));
        let mut tree = RStarTree::create(
            store,
            RStarConfig::new(2).with_max_entries(8),
            Box::new(ProximityIndex),
        )
        .unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]))
            .collect();
        for (i, p) in points.iter().enumerate() {
            tree.insert(p.clone(), i as u64).unwrap();
        }
        (tree, points)
    }

    #[test]
    fn matches_sequential_range_query() {
        let (tree, points) = build(1200, 31);
        let center = Point::new(vec![5.0, 5.0]);
        for radius in [0.0, 0.5, 2.0, 20.0] {
            let mut rs = RangeSearch::new(&tree, center.clone(), radius);
            let run = run_query(&tree, &mut rs).unwrap();
            // The same objects as a sequential scan of every point.
            let want: Vec<u64> = (0..points.len() as u64)
                .filter(|&i| center.dist_sq(&points[i as usize]) <= radius * radius)
                .collect();
            let mut got: Vec<u64> = run.results.iter().map(|n| n.object.0).collect();
            got.sort_unstable();
            assert_eq!(got, want, "radius {radius}");
        }
    }

    #[test]
    fn exploits_full_parallelism() {
        let (tree, _) = build(3000, 32);
        let mut rs = RangeSearch::new(&tree, Point::new(vec![5.0, 5.0]), 3.0);
        let run = run_query(&tree, &mut rs).unwrap();
        // Breadth-first over a fat region: batches grow beyond one page.
        assert!(run.max_batch > 1, "range queries parallelize freely");
        // Results sorted by distance.
        for w in run.results.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq);
        }
    }

    #[test]
    fn wrong_dimension_is_a_typed_error() {
        use crate::{best_first_knn, QueryError};
        let (tree, _) = build(300, 34);
        for dim in [1, 3] {
            let center = Point::splat(dim, 5.0);
            let want = format!("query point has {dim} dimensions but the tree has 2");
            let typed = |e: &QueryError| matches!(e, QueryError::Invariant(m) if *m == want);
            let mut rs = RangeSearch::new(&tree, center.clone(), 1.0);
            let err = run_query(&tree, &mut rs).unwrap_err();
            assert!(typed(&err), "{err}");
            let err = best_first_knn(&tree, &center, 5).unwrap_err();
            assert!(typed(&err), "{err}");
        }
    }

    #[test]
    fn empty_result_for_distant_sphere() {
        let (tree, _) = build(500, 33);
        let mut rs = RangeSearch::new(&tree, Point::new(vec![500.0, 500.0]), 1.0);
        let run = run_query(&tree, &mut rs).unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.nodes_visited, 1, "only the root is read");
    }
}

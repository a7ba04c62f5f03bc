//! WOPTSS — the hypothetical Weak-OPTimal Similarity Search
//! (Section 3.4).
//!
//! A weak-optimal algorithm touches exactly the nodes intersected by the
//! sphere centered at the query point with radius `D_k`, the distance to
//! the k-th nearest neighbour — a radius no real algorithm can know in
//! advance. WOPTSS obtains `D_k` from the sequential best-first search
//! at construction time (the oracle step, not billed to the query), then
//! fetches every relevant node level by level with full parallelism. Its
//! node count and response time are the lower bounds the real algorithms
//! are measured against (Theorem 2 shows none of them attains it).
//!
//! The oracle reads through the access method before any session starts:
//! the store's `IoStats` and its node cache count those lookups (`sqda
//! serve`'s `STATS reads=`), but the query's `QueryExplain` record and the
//! live per-disk metrics, which see only session reads, do not.

use crate::access::{AccessMethod, IndexNode, QueryScratch};
use crate::algo::{scan_leaf, AlgoScratch, BatchResult, Neighbor, SimilaritySearch, Step};
use crate::best_first::best_first_knn_with;
use crate::error::QueryError;
use sqda_geom::Point;
use sqda_simkernel::cpu_instructions_for_batch;
use sqda_storage::PageId;

/// The weak-optimal oracle search.
pub struct Woptss {
    query: Point,
    root: PageId,
    /// The oracle radius: squared distance to the true k-th neighbour.
    dk_sq: f64,
    /// The best-k array and the kernels' distance vector.
    s: AlgoScratch,
}

impl Woptss {
    /// Prepares a WOPTSS run, precomputing the true `D_k` via the
    /// sequential best-first search (the oracle's foreknowledge), whose
    /// reads reach the store but no query record (see the module docs).
    pub fn new(
        am: &(impl AccessMethod + ?Sized),
        query: Point,
        k: usize,
    ) -> Result<Self, QueryError> {
        Self::new_with(am, query, k, &mut QueryScratch::new())
    }

    /// [`Woptss::new`] with the oracle's best-first heap borrowed from a
    /// reusable [`QueryScratch`], and the run itself on that scratch's
    /// working memory.
    pub fn new_with(
        am: &(impl AccessMethod + ?Sized),
        query: Point,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<Self, QueryError> {
        let truth = best_first_knn_with(am, &query, k, scratch)?;
        // Fewer than k objects in the tree: every node is "relevant"
        // (the query must return the whole database).
        let dk_sq = if truth.len() < k {
            f64::INFINITY
        } else {
            truth.last().map(|n| n.dist_sq).unwrap_or(f64::INFINITY)
        };
        Ok(Self {
            query,
            root: am.root_page(),
            dk_sq,
            s: std::mem::take(&mut scratch.algo).for_query(k),
        })
    }
}

impl SimilaritySearch for Woptss {
    fn start(&mut self) -> Step {
        self.s.fetch_one(self.root)
    }

    fn on_fetched(&mut self, nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult {
        let mut scanned = 0u64;
        let (q, s) = (self.query.coords(), &mut self.s);
        s.pages.clear();
        for (_, node) in nodes.drain(..) {
            scanned += node.len() as u64;
            match node {
                IndexNode::Leaf(leaf) => scan_leaf(&leaf, q, &mut s.metrics[0], &mut s.kbest),
                IndexNode::Internal(block) => {
                    // `D_min²` for the whole node in one batched sweep.
                    let dists = &mut s.metrics[0];
                    block.min_dist_sq_into(q, dists);
                    let relevant = dists.iter().enumerate().filter(|(_, &d)| d <= self.dk_sq);
                    s.pages.extend(relevant.map(|(i, _)| block.child(i)));
                }
            }
        }
        BatchResult {
            cpu_instructions: cpu_instructions_for_batch(scanned, s.pages.len() as u64),
            next: s.fetch_or_done(),
        }
    }

    fn results(&self) -> Vec<Neighbor> {
        self.s.kbest.to_sorted()
    }

    fn name(&self) -> &'static str {
        "WOPTSS"
    }

    fn working_memory(&mut self) -> Option<&mut AlgoScratch> {
        Some(&mut self.s)
    }
}

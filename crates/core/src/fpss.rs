//! FPSS — Full-Parallel Similarity Search (Section 3.2).
//!
//! Breadth-first descent that activates **every** candidate region
//! intersecting the current query sphere, maximizing intra-query
//! parallelism. The query sphere radius is the Lemma-1 threshold (from
//! the subtree object counts) until real objects are seen. FPSS is "very
//! optimistic with respect to the usefulness of a node": it has no upper
//! bound on the number of pages fetched per step, which is exactly the
//! weakness the experiments expose under load.

use crate::access::{AccessMethod, IndexNode};
use crate::algo::{
    invalid_root, push_candidates, scan_leaf, AlgoScratch, BatchResult, Neighbor, SimilaritySearch,
    Step,
};
use crate::threshold::lemma1_threshold_sq;
use sqda_geom::Point;
use sqda_simkernel::cpu_instructions_for_batch;
use sqda_storage::PageId;

/// The full-parallel (breadth-first) similarity search.
pub struct Fpss {
    query: Point,
    k: usize,
    root: PageId,
    /// Smallest threshold seen so far (squared); pruning radius.
    d_th_sq: f64,
    /// The best-k array and the wavefront's candidates.
    s: AlgoScratch,
}

impl Fpss {
    /// Prepares an FPSS run for `k` neighbours of `query`.
    pub fn new(am: &(impl AccessMethod + ?Sized), query: Point, k: usize) -> Self {
        Self::over(am, query, k, AlgoScratch::default())
    }

    /// [`Fpss::new`] on recycled working memory.
    pub(crate) fn over(
        am: &(impl AccessMethod + ?Sized),
        query: Point,
        k: usize,
        s: AlgoScratch,
    ) -> Self {
        Self {
            query,
            k,
            root: am.root_page(),
            d_th_sq: f64::INFINITY,
            s: s.for_query(k),
        }
    }
}

impl SimilaritySearch for Fpss {
    fn start(&mut self) -> Step {
        self.s.fetch_one(self.root)
    }

    fn on_fetched(&mut self, nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult {
        if let Some(invalid) = invalid_root(nodes, self.root, self.query.coords()) {
            return invalid;
        }
        let mut scanned = 0u64;
        let (q, s) = (self.query.coords(), &mut self.s);
        s.cands.clear();
        // The BFS wavefront is level-uniform: either all leaves or all
        // internal nodes.
        for (_, node) in nodes.drain(..) {
            scanned += node.len() as u64;
            match node {
                IndexNode::Leaf(leaf) => scan_leaf(&leaf, q, &mut s.metrics[0], &mut s.kbest),
                IndexNode::Internal(block) => {
                    push_candidates(&block, q, &mut s.metrics, &mut s.cands)
                }
            }
        }
        // Adapt the threshold over the whole wavefront.
        if let Some(th) = lemma1_threshold_sq(&s.cands, self.k as u64, &mut s.prefix) {
            if th < self.d_th_sq {
                self.d_th_sq = th;
            }
        }
        // Activate everything intersecting the sphere — no upper bound.
        // (A leaf wavefront leaves no candidates: the descent is over.)
        s.cands.retain(|c| c.d_min_sq <= self.d_th_sq);
        s.cands.sort_by(|a, b| {
            a.d_min_sq
                .partial_cmp(&b.d_min_sq)
                .expect("distances are finite")
        });
        s.pages.clear();
        s.pages.extend(s.cands.iter().map(|c| c.page));
        BatchResult {
            cpu_instructions: cpu_instructions_for_batch(scanned, s.pages.len() as u64),
            next: s.fetch_or_done(),
        }
    }

    fn results(&self) -> Vec<Neighbor> {
        self.s.kbest.to_sorted()
    }

    fn name(&self) -> &'static str {
        "FPSS"
    }

    fn working_memory(&mut self) -> Option<&mut AlgoScratch> {
        Some(&mut self.s)
    }
}

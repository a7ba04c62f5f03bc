//! BBSS — Branch-and-Bound Similarity Search (Section 3.1).
//!
//! The Roussopoulos–Kelley–Vincent nearest-neighbour algorithm, restated
//! as a batch machine that requests **one node per batch**: a depth-first
//! traversal in `D_min` order, pruning branches whose `D_min` exceeds the
//! distance to the current k-th best object. On a disk array it exploits
//! no intra-query parallelism — the paper's motivation for CRSS.

use crate::access::{AccessMethod, IndexNode};
use crate::algo::{
    invalid_root, scan_leaf, AlgoScratch, BatchResult, Neighbor, SimilaritySearch, Step,
};
use sqda_geom::Point;
use sqda_simkernel::cpu_instructions_for_batch;
use sqda_storage::PageId;

/// The branch-and-bound (depth-first) similarity search.
pub struct Bbss {
    query: Point,
    root: PageId,
    /// The best-k array and the DFS stack (`s.branches`, the most
    /// promising branch — smallest `D_min` — on top).
    s: AlgoScratch,
}

impl Bbss {
    /// Prepares a BBSS run for `k` neighbours of `query`.
    pub fn new(am: &(impl AccessMethod + ?Sized), query: Point, k: usize) -> Self {
        Self::over(am, query, k, AlgoScratch::default())
    }

    /// [`Bbss::new`] on recycled working memory.
    pub(crate) fn over(
        am: &(impl AccessMethod + ?Sized),
        query: Point,
        k: usize,
        s: AlgoScratch,
    ) -> Self {
        Self {
            query,
            root: am.root_page(),
            s: s.for_query(k),
        }
    }

    /// Pops the next branch still intersecting the query sphere.
    fn next_step(&mut self) -> Step {
        let dk_sq = self.s.kbest.dk_sq();
        while let Some((d_min_sq, page)) = self.s.branches.pop() {
            if d_min_sq <= dk_sq {
                return self.s.fetch_one(page);
            }
            // Pruned by Rule 3: cannot contain a better answer.
        }
        Step::Done
    }
}

impl SimilaritySearch for Bbss {
    fn start(&mut self) -> Step {
        self.s.fetch_one(self.root)
    }

    fn on_fetched(&mut self, nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult {
        if let Some(invalid) = invalid_root(nodes, self.root, self.query.coords()) {
            return invalid;
        }
        debug_assert_eq!(nodes.len(), 1, "BBSS fetches one node at a time");
        let mut scanned = 0u64;
        let mut sorted = 0u64;
        let (q, s) = (self.query.coords(), &mut self.s);
        for (_, node) in nodes.drain(..) {
            scanned += node.len() as u64;
            match node {
                IndexNode::Leaf(leaf) => scan_leaf(&leaf, q, &mut s.metrics[0], &mut s.kbest),
                IndexNode::Internal(block) => {
                    let dk_sq = s.kbest.dk_sq();
                    // Build the active branch list in D_min order (the
                    // ordering Roussopoulos et al. recommend), pruning
                    // branches already outside the query sphere (Rule 1/3).
                    // `D_min²` comes from one batched kernel sweep.
                    let dists = &mut s.metrics[0];
                    block.min_dist_sq_into(q, dists);
                    let base = s.branches.len();
                    let live = dists.iter().enumerate().filter(|(_, &d)| d <= dk_sq);
                    s.branches.extend(live.map(|(i, &d)| (d, block.child(i))));
                    sorted += (s.branches.len() - base) as u64;
                    // Pushed in decreasing D_min order so the smallest ends
                    // on top of the DFS stack.
                    s.branches[base..]
                        .sort_by(|a, b| b.0.partial_cmp(&a.0).expect("distances are finite"));
                }
            }
        }
        BatchResult {
            next: self.next_step(),
            cpu_instructions: cpu_instructions_for_batch(scanned, sorted),
        }
    }

    fn results(&self) -> Vec<Neighbor> {
        self.s.kbest.to_sorted()
    }

    fn name(&self) -> &'static str {
        "BBSS"
    }

    fn working_memory(&mut self) -> Option<&mut AlgoScratch> {
        Some(&mut self.s)
    }
}

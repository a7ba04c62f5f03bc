//! The best-first frontier — Hjaltason–Samet's incremental search as a
//! batch machine, rounds as wide as the executor says reads overlap.
//!
//! Every directory entry not yet visited and still inside the query
//! sphere waits on one min-heap keyed by `(D_min², page)`. A round pops
//! up to `min(width, NumOfDisks)` of them whose `D_min²` is within the
//! current `D_k²` (`≤`, as BBSS prunes), smallest first, page id breaking
//! ties. A directory is scored by one `D_min²` kernel sweep: no
//! MINMAXDIST, no `D_max`, no Lemma 1 threshold and no candidate stack.
//!
//! At width 1 this is Hjaltason–Samet's order, so it visits exactly
//! WOPTSS's nodes: a popped entry's `D_min` is at most every unvisited
//! object's distance, so an entry within the current `D_k` is within the
//! final one too, and every node within the final `D_k` is reached before
//! the top leaves the sphere. Wider rounds buy intra-query parallelism
//! with nodes a later `D_k` would have pruned, CRSS's trade without its
//! threshold.
//! The real engine narrows to width 1 whenever memory served a round
//! ([`SimilaritySearch::set_width`]), which is how `sqda serve` runs it;
//! the simulator never narrows.

use crate::access::{AccessMethod, IndexNode};
use crate::algo::{
    invalid_root, scan_leaf, AlgoScratch, BatchResult, Neighbor, SimilaritySearch, Step,
};
use sqda_geom::Point;
use sqda_simkernel::cpu_instructions_for_batch;
use sqda_storage::PageId;
use std::cmp::Ordering;

/// One unvisited directory entry on the frontier heap: the heap's top is
/// the smallest `D_min²`, then the smallest page id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrontierEntry {
    d_min_sq: f64,
    page: PageId,
}

impl PartialEq for FrontierEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for FrontierEntry {}
impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-by-distance. `D_min²`
        // is a sum of squares, never NaN or -0.0, so `total_cmp` is the
        // numeric order.
        other
            .d_min_sq
            .total_cmp(&self.d_min_sq)
            .then(other.page.cmp(&self.page))
    }
}

/// The best-first frontier search.
pub struct Frontier {
    query: Point,
    /// Round bound `u` = number of disks in the array.
    u: usize,
    /// The executor's last word on how many pages a round can read in
    /// parallel; rounds hold at most `min(width, u)`.
    width: usize,
    root: PageId,
    /// The best-k array and the frontier heap (`s.frontier`).
    s: AlgoScratch,
}

impl Frontier {
    /// Prepares a frontier run for `k` neighbours of `query` whose rounds
    /// hold at most `u` pages (at `u = 1`, Hjaltason–Samet).
    /// [`AlgorithmKind::build`](crate::AlgorithmKind::build) takes `u`
    /// from the array's disk count.
    ///
    /// # Panics
    ///
    /// Panics if `u` is zero.
    pub fn with_activation_bound(
        am: &(impl AccessMethod + ?Sized),
        query: Point,
        k: usize,
        u: usize,
    ) -> Self {
        Self::over(am, query, k, u, AlgoScratch::default())
    }

    /// [`Frontier::with_activation_bound`] on recycled working memory.
    pub(crate) fn over(
        am: &(impl AccessMethod + ?Sized),
        query: Point,
        k: usize,
        u: usize,
        s: AlgoScratch,
    ) -> Self {
        assert!(u >= 1, "activation bound must be at least 1");
        Self {
            query,
            u,
            width: u,
            root: am.root_page(),
            s: s.for_query(k),
        }
    }

    /// Pops the next round: up to `min(width, u)` entries still inside
    /// the query sphere. Once the top is outside, so is every entry left,
    /// and `D_k` only shrinks: the search is done.
    fn next_step(&mut self) -> Step {
        let (dk_sq, w, s) = (self.s.kbest.dk_sq(), self.u.min(self.width), &mut self.s);
        s.pages.clear();
        while s.pages.len() < w {
            match s.frontier.peek() {
                Some(top) if top.d_min_sq <= dk_sq => {
                    s.pages.push(top.page);
                    s.frontier.pop();
                }
                _ => break,
            }
        }
        if s.pages.is_empty() {
            s.frontier.clear();
        }
        s.fetch_or_done()
    }
}

impl SimilaritySearch for Frontier {
    fn start(&mut self) -> Step {
        self.s.fetch_one(self.root)
    }

    fn on_fetched(&mut self, nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult {
        if let Some(invalid) = invalid_root(nodes, self.root, self.query.coords()) {
            return invalid;
        }
        let mut scanned = 0u64;
        let mut pushed = 0u64;
        let (q, s) = (self.query.coords(), &mut self.s);
        for (_, node) in nodes.drain(..) {
            scanned += node.len() as u64;
            match node {
                IndexNode::Leaf(leaf) => scan_leaf(&leaf, q, &mut s.metrics[0], &mut s.kbest),
                IndexNode::Internal(block) => {
                    // Entries already outside the query sphere never
                    // reach the heap (`D_k` only shrinks). One `push`
                    // each: `extend` rebuilds the heap when it grows a
                    // lot, which costs more than sifting a node's worth.
                    let dk_sq = s.kbest.dk_sq();
                    let dists = &mut s.metrics[0];
                    block.min_dist_sq_into(q, dists);
                    for (i, &d_min_sq) in dists.iter().enumerate() {
                        if d_min_sq <= dk_sq {
                            s.frontier.push(FrontierEntry {
                                d_min_sq,
                                page: block.child(i),
                            });
                            pushed += 1;
                        }
                    }
                }
            }
        }
        BatchResult {
            next: self.next_step(),
            cpu_instructions: cpu_instructions_for_batch(scanned, pushed),
        }
    }

    fn results(&self) -> Vec<Neighbor> {
        self.s.kbest.to_sorted()
    }

    fn name(&self) -> &'static str {
        "FRONTIER"
    }

    fn set_width(&mut self, width: usize) {
        self.width = width.max(1);
    }

    fn working_memory(&mut self) -> Option<&mut AlgoScratch> {
        Some(&mut self.s)
    }
}

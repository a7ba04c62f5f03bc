//! The batch state-machine abstraction shared by all the algorithms,
//! and the per-query working memory they run on.

use crate::access::{AccessMethod, IndexNode, InternalBlock, LeafBlock, QueryScratch};
use crate::error::QueryError;
use crate::frontier::FrontierEntry;
use crate::threshold::Candidate;
use sqda_geom::Point;
use sqda_rstar::ObjectId;
use sqda_storage::PageId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One k-NN answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// The object found.
    pub object: ObjectId,
    /// Its point.
    pub point: Point,
    /// Squared Euclidean distance from the query point.
    pub dist_sq: f64,
}

impl Neighbor {
    /// Euclidean distance from the query point.
    pub fn dist(&self) -> f64 {
        self.dist_sq.sqrt()
    }
}

/// What a similarity-search algorithm wants to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Fetch these pages from the disk array. Pages on different disks
    /// are serviced in parallel; the executor delivers the whole batch.
    Fetch(Vec<PageId>),
    /// The k best answers are final.
    Done,
    /// The query cannot run over this tree (its point has another
    /// dimensionality); the executor fails it with
    /// [`QueryError::Invariant`] carrying this message.
    Invalid(String),
}

/// Outcome of processing one batch of fetched nodes.
#[derive(Debug)]
pub struct BatchResult {
    /// The next step.
    pub next: Step,
    /// CPU instructions charged for this batch under the paper's cost
    /// model (`2·N` scan + `3·M·log₂M` sort); consumed by the simulator.
    pub cpu_instructions: u64,
}

/// Algorithm-internal telemetry surfaced to the observability layer
/// after each processed batch (see [`SimilaritySearch::progress`]).
///
/// Today this carries CRSS's distinctive state — the threshold-distance
/// trajectory and candidate-stack occupancy of Section 3.3 — but any
/// algorithm may report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoProgress {
    /// Current squared pruning threshold (`D_th²` for CRSS; infinite
    /// until bounded).
    pub d_th_sq: f64,
    /// Runs on the candidate stack.
    pub stack_runs: u32,
    /// Saved candidates across all runs.
    pub stack_candidates: u32,
}

/// A k-NN algorithm expressed as a batch state machine.
///
/// Protocol: call [`SimilaritySearch::start`] once, fetch the requested
/// pages, call [`SimilaritySearch::on_fetched`] with the decoded nodes,
/// repeat until [`Step::Done`], then read
/// [`SimilaritySearch::results`].
pub trait SimilaritySearch {
    /// Begins the query; returns the first fetch batch (the root page).
    fn start(&mut self) -> Step;

    /// Consumes one fetched batch (same order as requested) and decides
    /// what to do next. The algorithm drains the buffer, leaving it empty
    /// but with its capacity intact — executors reuse one batch buffer for
    /// every round of every query instead of allocating per round.
    fn on_fetched(&mut self, nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult;

    /// The answers, sorted by increasing distance. Complete only after
    /// `Done`.
    fn results(&self) -> Vec<Neighbor>;

    /// The algorithm's display name.
    fn name(&self) -> &'static str;

    /// How many pages the executor's next round can read in parallel, as
    /// the round just read showed it: the array's disk count when that
    /// round waited on a disk, 1 when memory served it and a wider round
    /// would cost CPU without overlapping anything. Called before
    /// [`SimilaritySearch::on_fetched`] builds the next fetch list; it
    /// holds until called again, and an executor that never calls it
    /// leaves the algorithm as constructed. CRSS, whose activation list
    /// exists to buy parallelism, and the frontier, whose rounds do,
    /// listen (the default ignores it); answers never depend on it.
    fn set_width(&mut self, _width: usize) {}

    /// Internal telemetry after the last processed batch, for tracing.
    /// Queried only when recording is enabled; `None` (the default)
    /// means the algorithm has nothing distinctive to report.
    fn progress(&self) -> Option<AlgoProgress> {
        None
    }

    /// The working memory the algorithm was built over
    /// ([`AlgorithmKind::build_with`]), for the session driving it to
    /// recycle: each fetch list goes back into it as soon as its pages are
    /// noted, and once the [`SimilaritySearch::results`] are taken the
    /// whole of it returns to the caller's [`QueryScratch`] — the algorithm
    /// is spent from then on. `None` (the default) recycles nothing.
    fn working_memory(&mut self) -> Option<&mut AlgoScratch> {
        None
    }
}

/// Bounded max-heap of the k best (closest) objects seen so far.
///
/// `D_k` — the distance to the current k-th nearest neighbour — is the
/// pruning radius every algorithm shares: it is infinite until k objects
/// have been seen and only shrinks afterwards.
///
/// Storage is flat and grows with the objects actually offered, never
/// with `k` (a client chooses `k`): heap items carry a slot into one
/// coordinate block, an evicted object's slot goes to its replacement,
/// and [`KBest::reset`] keeps both buffers for the next query, so an
/// offer allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct KBest {
    k: usize,
    dim: usize,
    heap: BinaryHeap<KBestItem>,
    coords: Vec<f64>,
}

#[derive(Debug)]
struct KBestItem {
    dist_sq: f64,
    object: ObjectId,
    slot: usize,
}

impl PartialEq for KBestItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for KBestItem {}
impl PartialOrd for KBestItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KBestItem {
    /// Squared distances of finite coordinates are sums of squares: never
    /// NaN and never −0.0, so `total_cmp` orders them exactly as `<` does.
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist_sq
            .total_cmp(&other.dist_sq)
            // Deterministic tie-breaking across algorithms: larger object
            // id counts as "farther" so the retained set is unique.
            .then(self.object.cmp(&other.object))
    }
}

impl KBest {
    /// Creates an empty collector for the `k` nearest.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        let mut kbest = Self::default();
        kbest.reset(k);
        kbest
    }

    /// Empties the collector for a new query asking for `k`, keeping its
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "k must be positive");
        self.k = k;
        self.heap.clear();
        self.coords.clear();
    }

    /// Offers a candidate object at `coords`.
    pub fn offer(&mut self, object: ObjectId, coords: &[f64], dist_sq: f64) {
        let mut item = KBestItem {
            dist_sq,
            object,
            slot: self.heap.len(),
        };
        if self.heap.len() < self.k {
            self.dim = coords.len();
            self.coords.extend_from_slice(coords);
            self.heap.push(item);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if item < *worst {
                item.slot = worst.slot;
                self.coords[item.slot * self.dim..][..self.dim].copy_from_slice(coords);
                *worst = item;
            }
        }
    }

    /// Squared distance to the current k-th best, or infinity while fewer
    /// than k objects have been seen.
    pub fn dk_sq(&self) -> f64 {
        match self.heap.peek() {
            Some(worst) if self.heap.len() == self.k => worst.dist_sq,
            _ => f64::INFINITY,
        }
    }

    /// Number of answers collected so far.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no answers have been collected.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The answers in increasing-distance order.
    pub fn to_sorted(&self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self
            .heap
            .iter()
            .map(|i| Neighbor {
                object: i.object,
                point: Point::from(&self.coords[i.slot * self.dim..][..self.dim]),
                dist_sq: i.dist_sq,
            })
            .collect();
        // The heap's order (see `KBestItem::cmp`).
        v.sort_by(|a, b| {
            a.dist_sq
                .total_cmp(&b.dist_sq)
                .then(a.object.cmp(&b.object))
        });
        v
    }
}

/// The working memory one query's algorithm runs on: the best-k array,
/// the kernels' metric vectors, the candidate store with its run
/// boundaries, BBSS's branch stack, the frontier's heap and a spare fetch
/// list. It travels in a [`QueryScratch`]: [`AlgorithmKind::build_with`]
/// moves it into the algorithm, the session moves it back
/// ([`SimilaritySearch::working_memory`]), so a stream of queries over one
/// scratch re-fills the same buffers. Opaque outside the crate.
#[derive(Debug, Default)]
pub struct AlgoScratch {
    pub(crate) kbest: KBest,
    /// `D_min²`, `D_mm²`, `D_max²` of the node under the kernels (leaf
    /// distances in the first).
    pub(crate) metrics: [Vec<f64>; 3],
    /// This batch's candidates; for CRSS also the candidate stack below
    /// them, one run after another.
    pub(crate) cands: Vec<Candidate>,
    /// Where each run of CRSS's candidate stack starts in `cands`.
    pub(crate) runs: Vec<usize>,
    /// Lemma 1's smallest-`D_max` prefix.
    pub(crate) prefix: Vec<(f64, u64)>,
    /// BBSS's DFS stack of `(D_min², page)`, most promising on top.
    pub(crate) branches: Vec<(f64, PageId)>,
    /// The frontier's min-heap of unvisited directory entries.
    pub(crate) frontier: BinaryHeap<FrontierEntry>,
    /// A page list to build the next [`Step::Fetch`] in.
    pub(crate) pages: Vec<PageId>,
}

impl AlgoScratch {
    /// Readies the buffers for a query asking for `k`.
    pub(crate) fn for_query(mut self, k: usize) -> Self {
        self.kbest.reset(k);
        self.cands.clear();
        self.runs.clear();
        self.branches.clear();
        self.frontier.clear();
        self
    }

    /// The step fetching `page` alone, its list built in recycled storage.
    pub(crate) fn fetch_one(&mut self, page: PageId) -> Step {
        self.pages.clear();
        self.pages.push(page);
        self.fetch_or_done()
    }

    /// The step fetching what `pages` holds, or `Done` when that is
    /// nothing (the storage then stays for the next query).
    pub(crate) fn fetch_or_done(&mut self) -> Step {
        if self.pages.is_empty() {
            Step::Done
        } else {
            Step::Fetch(std::mem::take(&mut self.pages))
        }
    }
}

/// The [`Step::Invalid`] that ends a query whose point does not fit the
/// tree: checked on the root, which every algorithm reads first and
/// alone, so one page-id compare per batch. Empties the batch when it
/// fires; `None` for any other batch and for a point that fits. (WOPTSS
/// needs no check: its oracle's best-first search refuses the point
/// before the query starts.)
pub(crate) fn invalid_root(
    nodes: &mut Vec<(PageId, IndexNode)>,
    root: PageId,
    q: &[f64],
) -> Option<BatchResult> {
    let msg = match nodes.first() {
        Some((page, node)) if *page == root => node.dim_mismatch(q)?,
        _ => return None,
    };
    nodes.clear();
    Some(BatchResult {
        next: Step::Invalid(msg),
        cpu_instructions: 0,
    })
}

/// The UPDATE step all algorithms share: one batch-kernel call over the
/// leaf, then every entry within the current `D_k` is offered (an offer
/// past `D_k` is a no-op; ties must still be offered for the object-id
/// tie-break).
pub(crate) fn scan_leaf(leaf: &LeafBlock, q: &[f64], dists: &mut Vec<f64>, kbest: &mut KBest) {
    leaf.dist_sq_into(q, dists);
    for (i, &d) in dists.iter().enumerate() {
        if d <= kbest.dk_sq() {
            kbest.offer(ObjectId(leaf.id(i)), leaf.point(i), d);
        }
    }
}

/// Appends one [`Candidate`] per entry of `block`, its three metrics from
/// one batched kernel sweep.
pub(crate) fn push_candidates(
    block: &InternalBlock,
    q: &[f64],
    metrics: &mut [Vec<f64>; 3],
    cands: &mut Vec<Candidate>,
) {
    let [d_min, d_mm, d_max] = metrics;
    block.metrics_into(q, d_min, d_mm, d_max);
    cands.extend(
        (0..block.len())
            .map(|i| Candidate::new(block.child(i), block.count(i), d_min[i], d_mm[i], d_max[i])),
    );
}

/// Which algorithm to instantiate: the paper's four, or the best-first
/// frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Branch-and-bound (Roussopoulos et al.), depth-first.
    Bbss,
    /// Full-parallel breadth-first search.
    Fpss,
    /// Candidate-reduction search (the paper's proposal).
    Crss,
    /// The weak-optimal oracle (requires precomputing the true `D_k`).
    Woptss,
    /// Best-first frontier (Hjaltason–Samet at width 1); not one of the
    /// paper's algorithms, so in neither [`AlgorithmKind::ALL`] nor
    /// [`AlgorithmKind::REAL`]. `sqda serve`'s default.
    Frontier,
}

impl AlgorithmKind {
    /// All four algorithms, in the paper's presentation order.
    pub const ALL: [AlgorithmKind; 4] = [
        AlgorithmKind::Bbss,
        AlgorithmKind::Fpss,
        AlgorithmKind::Crss,
        AlgorithmKind::Woptss,
    ];

    /// The three *real* (non-oracle) algorithms.
    pub const REAL: [AlgorithmKind; 3] = [
        AlgorithmKind::Bbss,
        AlgorithmKind::Fpss,
        AlgorithmKind::Crss,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Bbss => "BBSS",
            AlgorithmKind::Fpss => "FPSS",
            AlgorithmKind::Crss => "CRSS",
            AlgorithmKind::Woptss => "WOPTSS",
            AlgorithmKind::Frontier => "FRONTIER",
        }
    }

    /// Builds an instance for one query over any [`AccessMethod`].
    ///
    /// For [`AlgorithmKind::Woptss`] this computes the true k-NN distance
    /// through the sequential best-first search first (the oracle's
    /// foreknowledge); that preparatory work is *not* billed to the
    /// query.
    pub fn build(
        self,
        am: &(impl AccessMethod + ?Sized),
        query: Point,
        k: usize,
    ) -> Result<Box<dyn SimilaritySearch>, QueryError> {
        self.build_with(am, query, k, &mut QueryScratch::new())
    }

    /// [`AlgorithmKind::build`] over a reusable [`QueryScratch`]: the
    /// algorithm runs on the scratch's working memory (moved in here,
    /// moved back when its session finishes — an algorithm built while
    /// another still holds it starts on empty buffers), and the
    /// WOPTSS oracle borrows the scratch's best-first heap.
    pub fn build_with(
        self,
        am: &(impl AccessMethod + ?Sized),
        query: Point,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<Box<dyn SimilaritySearch>, QueryError> {
        let mut memory = || std::mem::take(&mut scratch.algo);
        Ok(match self {
            AlgorithmKind::Bbss => Box::new(crate::Bbss::over(am, query, k, memory())),
            AlgorithmKind::Fpss => Box::new(crate::Fpss::over(am, query, k, memory())),
            AlgorithmKind::Crss => {
                let u = am.num_disks() as usize;
                Box::new(crate::Crss::over(am, query, k, u, memory()))
            }
            AlgorithmKind::Woptss => Box::new(crate::Woptss::new_with(am, query, k, scratch)?),
            AlgorithmKind::Frontier => {
                let u = am.num_disks() as usize;
                Box::new(crate::Frontier::over(am, query, k, u, memory()))
            }
        })
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer(kb: &mut KBest, id: u64, d: f64) {
        kb.offer(ObjectId(id), &[id as f64], d);
    }

    #[test]
    fn kbest_tracks_k_smallest() {
        let mut kb = KBest::new(3);
        assert_eq!(kb.dk_sq(), f64::INFINITY);
        for (id, d) in [(0, 5.0), (1, 1.0), (2, 9.0), (3, 0.5), (4, 4.0)] {
            offer(&mut kb, id, d);
        }
        assert_eq!(kb.len(), 3);
        assert_eq!(kb.dk_sq(), 4.0);
        let sorted = kb.to_sorted();
        let ids: Vec<u64> = sorted.iter().map(|n| n.object.0).collect();
        assert_eq!(ids, vec![3, 1, 4]);
    }

    #[test]
    fn kbest_dk_infinite_until_full() {
        let mut kb = KBest::new(5);
        offer(&mut kb, 0, 1.0);
        offer(&mut kb, 1, 2.0);
        assert_eq!(kb.dk_sq(), f64::INFINITY);
        for i in 2..5 {
            offer(&mut kb, i, i as f64);
        }
        assert_eq!(kb.dk_sq(), 4.0);
    }

    #[test]
    fn kbest_ties_break_by_object_id() {
        let mut a = KBest::new(2);
        let mut b = KBest::new(2);
        // Same candidates, different arrival order.
        for (id, d) in [(7, 1.0), (3, 1.0), (5, 1.0)] {
            offer(&mut a, id, d);
        }
        for (id, d) in [(5, 1.0), (7, 1.0), (3, 1.0)] {
            offer(&mut b, id, d);
        }
        let ids = |kb: &KBest| {
            kb.to_sorted()
                .iter()
                .map(|n| n.object.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(ids(&a), vec![3, 5]);
    }

    #[test]
    fn kbest_keeps_each_answers_own_point_and_never_sizes_by_k() {
        // `k` comes off the wire: a huge one must cost nothing up front.
        let mut kb = KBest::new(usize::MAX);
        offer(&mut kb, 1, 2.0);
        assert_eq!((kb.len(), kb.dk_sq()), (1, f64::INFINITY));
        // Evictions hand their coordinate slot to the replacement.
        kb.reset(2);
        for (id, d) in [(10, 9.0), (11, 8.0), (12, 1.0), (13, 7.0), (14, 0.5)] {
            offer(&mut kb, id, d);
        }
        let got: Vec<(u64, f64)> = kb
            .to_sorted()
            .iter()
            .map(|n| (n.object.0, n.point.coord(0)))
            .collect();
        assert_eq!(got, vec![(14, 14.0), (12, 12.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn kbest_zero_k_panics() {
        let _ = KBest::new(0);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(AlgorithmKind::Crss.to_string(), "CRSS");
        assert_eq!(AlgorithmKind::Frontier.to_string(), "FRONTIER");
        assert_eq!(AlgorithmKind::ALL.len(), 4);
        assert_eq!(AlgorithmKind::REAL.len(), 3);
    }
}

//! CRSS — Candidate Reduction Similarity Search (Section 3.3, the
//! paper's contribution).
//!
//! CRSS interpolates between BBSS (pure depth-first, one page at a time)
//! and FPSS (pure breadth-first, everything at once):
//!
//! * A **threshold distance** `D_th` is derived from the per-entry
//!   subtree object counts (Lemma 1) before any data page is read, and
//!   later tightened to the distance `D_k` of the k-th best object seen.
//! * The **candidate reduction criterion** splits each batch of fetched
//!   MBRs three ways: reject (`D_th < D_min`), activate (`D_th > D_mm`),
//!   or save for later.
//! * Saved candidates go on a **candidate stack**, one *run* per batch,
//!   each run ordered by `D_min` and separated by guards: because the
//!   granularity of MBRs improves towards the leaves, deeper (newer) runs
//!   are always inspected first, and within a run the first candidate
//!   that misses the query sphere rejects the entire remainder of the
//!   run.
//! * The activation list is bounded: at least enough branches to
//!   guarantee `k` objects (`l`), at most one page per disk (`u`), so
//!   parallelism is exploited without flooding the array. An executor
//!   can narrow it per round ([`SimilaritySearch::set_width`]): the real
//!   engine does when a round's pages came from memory, where parallel
//!   reads overlap nothing. The simulator models every read as a disk
//!   access and never narrows.
//!
//! Operating modes (per the paper's pseudo-code): ADAPTIVE from the root
//! until the leaf level is first reached (threshold adapts per level),
//! UPDATE whenever leaves are processed (the best-k array updates),
//! NORMAL for internal nodes afterwards, TERMINATE when the stack is
//! exhausted.

use crate::access::{AccessMethod, IndexNode};
use crate::algo::{
    invalid_root, push_candidates, scan_leaf, AlgoProgress, AlgoScratch, BatchResult, Neighbor,
    SimilaritySearch, Step,
};
use crate::threshold::{lemma1_threshold_sq, minmax_threshold_sq, reduce_candidates};
use sqda_geom::Point;
use sqda_simkernel::cpu_instructions_for_batch;
use sqda_storage::PageId;

/// The operating mode of the CRSS state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Descending from the root; leaf level not reached yet.
    Adaptive,
    /// Steady state: internal nodes after the first leaf batch.
    Normal,
    /// No candidates remain.
    Terminate,
}

/// The candidate-reduction similarity search.
pub struct Crss {
    query: Point,
    k: usize,
    /// Activation upper bound `u` = number of disks in the array.
    u: usize,
    /// The executor's last word on how many pages a round can read in
    /// parallel; activation lists hold at most `min(width, u)`.
    width: usize,
    root: PageId,
    /// Current squared threshold distance `D_th²` (only ever shrinks).
    d_th_sq: f64,
    mode: Mode,
    /// Extension beyond the paper: also bound `D_th` by the k-th smallest
    /// MINMAXDIST of each adaptive-phase wavefront.
    minmax_threshold: bool,
    /// The best-k array and the candidate stack: `s.cands` holds the runs
    /// back to back, each ordered by increasing `D_min`, `s.runs` where
    /// each starts (the guards between them); a batch under reduction sits
    /// past the newest run.
    s: AlgoScratch,
}

impl Crss {
    /// Prepares a CRSS run for `k` neighbours of `query`. The activation
    /// bound is taken from the array's disk count.
    pub fn new(am: &(impl AccessMethod + ?Sized), query: Point, k: usize) -> Self {
        let u = am.num_disks() as usize;
        Self::with_activation_bound(am, query, k, u)
    }

    /// Prepares a CRSS run with an explicit activation bound `u` (used by
    /// the ablation experiments; the paper fixes `u = NumOfDisks`).
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

    /// [`Crss::with_activation_bound`] on recycled working memory.
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
            k,
            u,
            width: u,
            root: am.root_page(),
            d_th_sq: f64::INFINITY,
            mode: Mode::Adaptive,
            minmax_threshold: false,
            s: s.for_query(k),
        }
    }

    /// Enables the MINMAXDIST threshold tightening (an extension beyond
    /// the paper; see [`crate::threshold::minmax_threshold_sq`]). Answers
    /// are unchanged; node accesses can only shrink.
    pub fn with_minmax_threshold(mut self) -> Self {
        self.minmax_threshold = true;
        self
    }

    /// Tightens the threshold to `bound` if that is smaller.
    fn tighten(&mut self, bound: Option<f64>) {
        if let Some(bound) = bound.filter(|&b| b < self.d_th_sq) {
            self.d_th_sq = bound;
        }
    }

    /// Applies the reduction criterion to the candidates `cands[base..]`:
    /// the activated ones become the next fetch list, the saved ones stay
    /// as the stack's top run. Returns the number of survivors.
    fn reduce(&mut self, base: usize) -> usize {
        let (s, u) = (&mut self.s, self.u.min(self.width));
        let survivors = reduce_candidates(&mut s.cands, base, self.d_th_sq, u, &mut s.pages);
        if s.cands.len() > base {
            s.runs.push(base);
        }
        survivors
    }

    /// The fetch list [`Crss::reduce`] left, or the next one off the
    /// candidate stack when it activated nothing: pops runs until one
    /// yields an activation list, applying the guard optimization within
    /// each run.
    fn next_step(&mut self) -> Step {
        while self.s.pages.is_empty() {
            let Some(start) = self.s.runs.pop() else {
                self.mode = Mode::Terminate;
                return Step::Done;
            };
            // Guard elimination: the run is ordered by increasing D_min,
            // so the first miss rejects the remainder of the run.
            let run = &self.s.cands[start..];
            let alive = run.partition_point(|c| c.d_min_sq <= self.d_th_sq);
            self.s.cands.truncate(start + alive);
            // The lower-bound promotion in `reduce_candidates` always
            // activates at least one surviving candidate.
            self.reduce(start);
        }
        self.s.fetch_or_done()
    }
}

impl SimilaritySearch for Crss {
    fn start(&mut self) -> Step {
        self.s.fetch_one(self.root)
    }

    fn on_fetched(&mut self, nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult {
        if let Some(invalid) = invalid_root(nodes, self.root, self.query.coords()) {
            return invalid;
        }
        let mut scanned = 0u64;
        let mut sorted = 0u64;
        let q = self.query.coords();
        self.s.pages.clear();
        // Fetched batches are level-uniform (activation lists never mix
        // levels), so inspect the first node.
        let leaf_batch = nodes.first().map(|(_, n)| n.is_leaf()).unwrap_or(true);
        let base = self.s.cands.len();
        for (_, node) in nodes.drain(..) {
            scanned += node.len() as u64;
            match node {
                // UPDATE mode: data objects refine the best-k array.
                IndexNode::Leaf(leaf) if leaf_batch => {
                    scan_leaf(&leaf, q, &mut self.s.metrics[0], &mut self.s.kbest)
                }
                IndexNode::Internal(block) if !leaf_batch => {
                    push_candidates(&block, q, &mut self.s.metrics, &mut self.s.cands)
                }
                _ => unreachable!("level-uniform batch"),
            }
        }
        if leaf_batch {
            if self.mode == Mode::Adaptive {
                self.mode = Mode::Normal;
            }
        } else if self.mode == Mode::Adaptive {
            // Adapt the threshold from this level's counts (Lemma 1).
            let (s, k) = (&mut self.s, self.k as u64);
            let lemma1 = lemma1_threshold_sq(&s.cands[base..], k, &mut s.prefix);
            self.tighten(lemma1);
            if self.minmax_threshold {
                self.tighten(minmax_threshold_sq(&self.s.cands[base..], k));
            }
        }
        // `D_k` bounds the threshold once k objects have been seen.
        self.tighten(Some(self.s.kbest.dk_sq()));
        if !leaf_batch {
            sorted += self.reduce(base) as u64;
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
        "CRSS"
    }

    fn set_width(&mut self, width: usize) {
        self.width = width.max(1);
    }

    fn progress(&self) -> Option<AlgoProgress> {
        Some(AlgoProgress {
            d_th_sq: self.d_th_sq,
            stack_runs: self.s.runs.len() as u32,
            stack_candidates: self.s.cands.len() as u32,
        })
    }

    fn working_memory(&mut self) -> Option<&mut AlgoScratch> {
        Some(&mut self.s)
    }
}

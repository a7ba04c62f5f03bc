//! Multi-query shared traversal: B queries through one descent.
//!
//! The paper's engines parallelize one query across disks; this module
//! adds the orthogonal axis — amortizing one *traversal* across queries.
//! A batch of B k-NN queries descends the tree in lockstep (FPSS
//! wavefront semantics, level by level): each round fetches the **union**
//! of the pages any query still needs, decodes every node once, and runs
//! the batch distance kernels per interested query over the shared
//! decoded block — a B×entries distance matrix per node, realised one
//! query-row at a time into reused scratch buffers.
//!
//! Answers are **bit-identical** to running FPSS per query: each query's
//! round-r node *set* equals its solo wavefront (the Lemma-1 threshold is
//! order-independent, survivor filtering is per-candidate, and the
//! retained k-set under the (distance, object-id) order does not depend
//! on offer order), so sharing changes only how often a page is fetched,
//! never what is answered. The I/O saving is reported as
//! [`BatchKnnReport::unique_fetches`] versus
//! [`BatchKnnReport::total_interest`] (what B solo traversals would have
//! read).

use crate::access::{AccessMethod, IndexNode};
use crate::algo::{push_candidates, scan_leaf, KBest, Neighbor};
use crate::error::QueryError;
use crate::exec::{fetch_round, Round};
use crate::threshold::{lemma1_threshold_sq, Candidate};
use sqda_geom::Point;
use sqda_storage::{IoBackend, PageId};
use std::collections::BTreeMap;

/// Results of one shared-traversal batch.
#[derive(Debug, Clone)]
pub struct BatchKnnReport {
    /// Per-query answers, in input order; each sorted by increasing
    /// distance (object id breaking ties).
    pub answers: Vec<Vec<Neighbor>>,
    /// Pages fetched and decoded once for the whole batch.
    pub unique_fetches: u64,
    /// Sum over fetched pages of the number of interested queries — the
    /// page reads B independent traversals would have issued.
    pub total_interest: u64,
    /// Descent rounds (tree levels touched).
    pub rounds: u32,
}

impl BatchKnnReport {
    /// Fetch amplification avoided: `total_interest / unique_fetches`
    /// (1.0 when queries never overlap, up to B when they always do).
    pub fn sharing_factor(&self) -> f64 {
        if self.unique_fetches == 0 {
            1.0
        } else {
            self.total_interest as f64 / self.unique_fetches as f64
        }
    }
}

/// Reusable workspace for [`batch_knn_with`]: the kernel scratch and
/// round-read buffers survive across batches, so a steady-state batch
/// stream allocates only per-query state.
#[derive(Default)]
pub struct BatchScratch {
    metrics: [Vec<f64>; 3],
    prefix: Vec<(f64, u64)>,
    round: Round,
}

impl BatchScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs `queries` as one shared-traversal k-NN batch over `am`, reading
/// through the access method itself.
///
/// See the module docs for semantics; answers are bit-identical to
/// running [`crate::Fpss`] per query.
pub fn batch_knn(
    am: &(impl AccessMethod + ?Sized),
    queries: &[Point],
    k: usize,
) -> Result<BatchKnnReport, QueryError> {
    batch_knn_with(am, None, queries, k, &mut BatchScratch::new())
}

/// [`batch_knn`] over a caller-supplied [`BatchScratch`] and, with
/// `backend` given, with each wavefront read served through that
/// [`IoBackend`] the way the real-clock engine reads a session's batch:
/// cache probes first, then one `submit_batch` for the misses — over a
/// [`sqda_storage::ThreadedFileBackend`] the whole round reads
/// concurrently across the per-disk files — re-assembled in request
/// order, so answers and the report stay bit-identical to [`batch_knn`].
pub fn batch_knn_with<A: AccessMethod + ?Sized>(
    am: &A,
    backend: Option<&dyn IoBackend>,
    queries: &[Point],
    k: usize,
    scratch: &mut BatchScratch,
) -> Result<BatchKnnReport, QueryError> {
    let b = queries.len();
    let mut kbest: Vec<KBest> = (0..b).map(|_| KBest::new(k)).collect();
    let mut d_th = vec![f64::INFINITY; b];
    // The shared wavefront: page → queries still interested in it.
    // BTreeMap so rounds iterate pages in a deterministic order.
    let mut frontier: BTreeMap<PageId, Vec<u32>> = BTreeMap::new();
    if b > 0 {
        frontier.insert(am.root_page(), (0..b as u32).collect());
    }
    let mut unique_fetches = 0u64;
    let mut total_interest = 0u64;
    let mut rounds = 0u32;
    // Per-query candidate accumulators for the current round.
    let mut cands: Vec<Vec<Candidate>> = (0..b).map(|_| Vec::new()).collect();

    while !frontier.is_empty() {
        rounds += 1;
        let wave = std::mem::take(&mut frontier);
        // One fetch covers the whole round (over an I/O backend the
        // union reads in parallel); one decode serves every interested
        // query of a page.
        let pages: Vec<PageId> = wave.keys().copied().collect();
        match backend {
            Some(backend) => fetch_round(am, backend, &pages, &mut scratch.round, |_| {})?,
            None => {
                scratch.round.nodes.clear();
                for &page in &pages {
                    scratch.round.nodes.push(Some(am.read_index_node(page)?));
                }
            }
        }
        let mut leaf_round = false;
        for ((_page, interested), node) in wave.into_iter().zip(scratch.round.drain()) {
            unique_fetches += 1;
            total_interest += interested.len() as u64;
            match node {
                IndexNode::Leaf(leaf) => {
                    // Index trees are balanced: a leaf round is a leaf
                    // round for every query in the batch.
                    leaf_round = true;
                    for &q in &interested {
                        // One row of the B×entries distance matrix.
                        let (q, kbest) = (queries[q as usize].coords(), &mut kbest[q as usize]);
                        scan_leaf(&leaf, q, &mut scratch.metrics[0], kbest);
                    }
                }
                IndexNode::Internal(block) => {
                    for &q in &interested {
                        let (q, cands) = (queries[q as usize].coords(), &mut cands[q as usize]);
                        push_candidates(&block, q, &mut scratch.metrics, cands);
                    }
                }
            }
        }
        if leaf_round {
            // FPSS semantics: the leaf level ends the descent.
            break;
        }
        for (qi, qc) in cands.iter_mut().enumerate() {
            if qc.is_empty() {
                continue;
            }
            // Adapt the query's threshold over its whole wavefront
            // (Lemma 1; only ever shrinks), then keep every branch still
            // intersecting its query sphere.
            if let Some(th) = lemma1_threshold_sq(qc, k as u64, &mut scratch.prefix) {
                if th < d_th[qi] {
                    d_th[qi] = th;
                }
            }
            for c in qc.drain(..) {
                if c.d_min_sq <= d_th[qi] {
                    frontier.entry(c.page).or_default().push(qi as u32);
                }
            }
        }
    }

    Ok(BatchKnnReport {
        answers: kbest.iter().map(|kb| kb.to_sorted()).collect(),
        unique_fetches,
        total_interest,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_query;
    use crate::Fpss;
    use sqda_geom::rng::Rng;
    use sqda_rstar::decluster::ProximityIndex;
    use sqda_rstar::{RStarConfig, RStarTree};
    use sqda_storage::ArrayStore;
    use std::sync::Arc;

    fn build(n: usize, seed: u64) -> RStarTree<ArrayStore> {
        let store = Arc::new(ArrayStore::new(4, 1449, seed));
        let mut tree = RStarTree::create(
            store,
            RStarConfig::new(2).with_max_entries(8),
            Box::new(ProximityIndex),
        )
        .unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..n {
            tree.insert(
                Point::new(vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]),
                i as u64,
            )
            .unwrap();
        }
        tree
    }

    #[test]
    fn batch_answers_bit_identical_to_solo_fpss() {
        let tree = build(1500, 41);
        let mut rng = Rng::seed_from_u64(99);
        let queries: Vec<Point> = (0..16)
            .map(|_| Point::new(vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]))
            .collect();
        for k in [1, 5, 10] {
            let batch = batch_knn(&tree, &queries, k).unwrap();
            assert_eq!(batch.answers.len(), queries.len());
            for (q, got) in queries.iter().zip(batch.answers.iter()) {
                let mut solo = Fpss::new(&tree, q.clone(), k);
                let want = run_query(&tree, &mut solo).unwrap().results;
                assert_eq!(got.len(), want.len(), "k={k}");
                for (g, w) in got.iter().zip(want.iter()) {
                    assert_eq!(g.object, w.object, "k={k}");
                    assert_eq!(g.dist_sq.to_bits(), w.dist_sq.to_bits(), "k={k}");
                }
            }
        }
    }

    #[test]
    fn sharing_reduces_unique_fetches() {
        let tree = build(2000, 42);
        // Clustered queries overlap heavily: the union wavefront must be
        // far smaller than B solo traversals.
        let queries: Vec<Point> = (0..8)
            .map(|i| Point::new(vec![5.0 + 0.01 * i as f64, 5.0]))
            .collect();
        let report = batch_knn(&tree, &queries, 5).unwrap();
        assert!(report.unique_fetches > 0);
        assert!(
            report.total_interest > report.unique_fetches,
            "clustered queries must share fetches: {} vs {}",
            report.total_interest,
            report.unique_fetches
        );
        assert!(report.sharing_factor() > 1.5);
        assert!(report.rounds >= 2);
    }

    #[test]
    fn empty_batch_and_single_query() {
        let tree = build(300, 43);
        let none = batch_knn(&tree, &[], 3).unwrap();
        assert!(none.answers.is_empty());
        assert_eq!(none.unique_fetches, 0);

        let one = vec![Point::new(vec![2.0, 2.0])];
        let report = batch_knn(&tree, &one, 3).unwrap();
        assert_eq!(report.answers.len(), 1);
        assert_eq!(report.answers[0].len(), 3);
        // A batch of one shares nothing.
        assert_eq!(report.unique_fetches, report.total_interest);
    }

    #[test]
    fn backend_routed_batch_is_bit_identical() {
        use sqda_storage::InlineBackend;
        let tree = build(1200, 45);
        let backend = InlineBackend::new(Arc::clone(tree.store()));
        let mut rng = Rng::seed_from_u64(7);
        let queries: Vec<Point> = (0..12)
            .map(|_| Point::new(vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]))
            .collect();
        for k in [1, 7] {
            let direct = batch_knn(&tree, &queries, k).unwrap();
            let mut scratch = BatchScratch::new();
            let routed = batch_knn_with(&tree, Some(&backend), &queries, k, &mut scratch).unwrap();
            // Identical counters: the backend path fetches the same page
            // union per round, it only changes who performs the reads.
            assert_eq!(routed.unique_fetches, direct.unique_fetches);
            assert_eq!(routed.total_interest, direct.total_interest);
            assert_eq!(routed.rounds, direct.rounds);
            assert_eq!(routed.answers.len(), direct.answers.len());
            for (r, d) in routed.answers.iter().zip(direct.answers.iter()) {
                assert_eq!(r.len(), d.len());
                for (a, b) in r.iter().zip(d.iter()) {
                    assert_eq!(a.object, b.object);
                    assert_eq!(a.dist_sq.to_bits(), b.dist_sq.to_bits());
                }
            }
        }
    }

    #[test]
    fn batch_larger_than_tree_k() {
        let tree = build(10, 44);
        let queries = vec![Point::new(vec![1.0, 1.0]), Point::new(vec![9.0, 9.0])];
        let report = batch_knn(&tree, &queries, 50).unwrap();
        for a in &report.answers {
            assert_eq!(a.len(), 10, "k beyond population returns everything");
        }
    }
}

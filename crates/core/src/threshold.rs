//! Lemma 1 (the count-based threshold distance) and the candidate
//! reduction criterion of Section 3.3.

use sqda_storage::PageId;

/// A candidate branch: a directory entry annotated with its distances
/// from the query point. Distances are squared throughout and come out
/// of the batch kernels ([`crate::InternalBlock::metrics_into`]) — the
/// candidate carries no geometry of its own.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The child page the branch points to.
    pub page: PageId,
    /// Objects in the subtree (from the count-augmented entry).
    pub count: u64,
    /// `D_min²` from the query point.
    pub d_min_sq: f64,
    /// `D_mm²` (MINMAXDIST for MBRs, `D_max` for spheres) from the query
    /// point.
    pub d_mm_sq: f64,
    /// `D_max²` from the query point.
    pub d_max_sq: f64,
}

impl Candidate {
    /// Builds a candidate from precomputed squared metrics.
    pub fn new(page: PageId, count: u64, d_min_sq: f64, d_mm_sq: f64, d_max_sq: f64) -> Self {
        Self {
            page,
            count,
            d_min_sq,
            d_mm_sq,
            d_max_sq,
        }
    }
}

/// Lemma 1: the squared threshold distance `D_th²`.
///
/// Take the candidate MBRs by `D_max` ascending and accumulate their
/// object counts; the sphere of radius `D_max(P_q, R_x)` around the query
/// point — where `x` is the first position at which the accumulated count
/// reaches `k` — is guaranteed to contain at least `k` objects, because
/// the MBRs `R_1..R_x` lie entirely inside it. Hence all `k` nearest
/// neighbours are within that radius.
///
/// Only that prefix `R_1..R_x` is ever ordered: one pass keeps, in
/// `prefix` (scratch, `(D_max², count)` ascending), the smallest-`D_max`
/// candidates seen so far whose counts just reach `k` — at most `k` of
/// them, a single one wherever subtrees hold `k` objects each — and skips
/// every candidate that lies beyond it. The result is the value a full
/// sort would find.
///
/// Returns `None` when the candidates hold fewer than `k` objects in
/// total (then no finite bound exists yet and the caller must keep every
/// branch).
pub fn lemma1_threshold_sq(
    candidates: &[Candidate],
    k: u64,
    prefix: &mut Vec<(f64, u64)>,
) -> Option<f64> {
    if k == 0 {
        return Some(0.0);
    }
    prefix.clear();
    let mut total = 0u64;
    for c in candidates {
        if let Some(&(farthest, _)) = prefix.last() {
            if total >= k && c.d_max_sq >= farthest {
                continue;
            }
        }
        let at = prefix.partition_point(|&(d_max_sq, _)| d_max_sq <= c.d_max_sq);
        prefix.insert(at, (c.d_max_sq, c.count));
        total += c.count;
        while let Some(&(_, count)) = prefix.last() {
            if total - count < k {
                break;
            }
            total -= count;
            prefix.pop();
        }
    }
    prefix.last().filter(|_| total >= k).map(|&(d, _)| d)
}

/// A tighter threshold from MINMAXDIST (an extension beyond the paper):
/// each MBR guarantees at least one object within its `D_mm`, and sibling
/// MBRs bound disjoint subtrees, so the k-th smallest `D_mm` among ≥ k
/// candidates also upper-bounds `D_k`. Combined with Lemma 1 via `min`,
/// this can only shrink the threshold — the `ext_tighter_threshold`
/// experiment measures by how much.
///
/// Returns `None` when fewer than `k` candidate MBRs exist (the guarantee
/// needs k distinct subtrees). `k = 0` yields `Some(0.0)`.
pub fn minmax_threshold_sq(candidates: &[Candidate], k: u64) -> Option<f64> {
    if k == 0 {
        return Some(0.0);
    }
    let k = k as usize;
    if candidates.len() < k {
        return None;
    }
    let mut dmms: Vec<f64> = candidates.iter().map(|c| c.d_mm_sq).collect();
    dmms.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
    Some(dmms[k - 1])
}

/// The verdict of the candidate reduction criterion for one MBR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `D_th < D_min`: the branch cannot contain an answer — discard.
    Reject,
    /// `D_th > D_mm`: the branch is guaranteed useful — fetch now.
    Activate,
    /// Between the bounds: defer on the candidate stack.
    Save,
}

/// Applies the candidate reduction criterion (Section 3.3) to one
/// candidate given the squared threshold `d_th_sq`:
///
/// * reject if `D_th < D_min` (no intersection with the query sphere),
/// * activate if `D_th > D_mm` (an object is guaranteed within `D_th`),
/// * save otherwise.
pub fn classify(candidate: &Candidate, d_th_sq: f64) -> Verdict {
    if d_th_sq < candidate.d_min_sq {
        Verdict::Reject
    } else if d_th_sq > candidate.d_mm_sq {
        Verdict::Activate
    } else {
        Verdict::Save
    }
}

/// Splits the candidates `cands[base..]` into activated and saved under
/// the criterion and the CRSS activation bounds, in place.
///
/// The criterion first rejects branches outside the query sphere
/// (`D_th < D_min`). Surviving branches are prioritized: guaranteed
/// useful ones (`D_th > D_mm`) first, doubtful ones after, each group by
/// increasing `D_min`. The activation list takes candidates in that
/// priority order up to the **upper bound `u`** (one page per disk —
/// "we never allow the activation of more than u = NumOfDisks
/// elements"); the overflow is saved for the candidate stack. The
/// paper's **lower bound `l`** (activate at least enough branches to
/// guarantee `k` objects) is subsumed: the list is filled to `u ≥ l`
/// whenever enough survivors exist, which is exactly how CRSS "exploits
/// parallelism up to a point" while the threshold keeps the wavefront
/// from exploding the way FPSS's does.
///
/// The activated candidates' pages replace the contents of `pages`, in
/// increasing-`D_min` order, and leave `cands`; the saved ones stay as
/// `cands[base..]`, sorted by increasing `D_min` — a candidate run, ready
/// to be guarded. Every sort is stable, so equal keys keep entry order.
/// Returns the number of survivors (activated plus saved).
pub fn reduce_candidates(
    cands: &mut Vec<Candidate>,
    base: usize,
    d_th_sq: f64,
    u: usize,
    pages: &mut Vec<PageId>,
) -> usize {
    debug_assert!(u >= 1);
    let mut kept = base;
    for i in base..cands.len() {
        if classify(&cands[i], d_th_sq) != Verdict::Reject {
            cands[kept] = cands[i];
            kept += 1;
        }
    }
    cands.truncate(kept);
    let by_d_min = |a: &Candidate, b: &Candidate| {
        a.d_min_sq
            .partial_cmp(&b.d_min_sq)
            .expect("distances are finite")
    };
    let survivors = &mut cands[base..];
    survivors.sort_by(|a, b| {
        let doubtful = |c| classify(c, d_th_sq) == Verdict::Save;
        doubtful(a).cmp(&doubtful(b)).then(by_d_min(a, b))
    });
    let (active, saved) = survivors.split_at_mut(u.min(survivors.len()));
    active.sort_by(by_d_min);
    saved.sort_by(by_d_min);
    pages.clear();
    pages.extend(active.iter().map(|c| c.page));
    cands.drain(base..base + pages.len());
    kept - base
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(page: u64, count: u64, d_min: f64, d_mm: f64, d_max: f64) -> Candidate {
        Candidate::new(PageId::from_raw(page), count, d_min, d_mm, d_max)
    }

    fn lemma1(candidates: &[Candidate], k: u64) -> Option<f64> {
        lemma1_threshold_sq(candidates, k, &mut vec![(9.0, 9)])
    }

    /// Lemma 1 as the paper states it — sort everything by `D_max`,
    /// accumulate counts — kept as the oracle for the selection.
    fn lemma1_by_sort(candidates: &[Candidate], k: u64) -> Option<f64> {
        if k == 0 {
            return Some(0.0);
        }
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| {
            candidates[a]
                .d_max_sq
                .partial_cmp(&candidates[b].d_max_sq)
                .expect("distances are finite")
        });
        let mut acc = 0u64;
        for idx in order {
            acc += candidates[idx].count;
            if acc >= k {
                return Some(candidates[idx].d_max_sq);
            }
        }
        None
    }

    /// `reduce_candidates` over a fresh list: activated pages, saved run.
    fn reduce(mut cs: Vec<Candidate>, d_th_sq: f64, u: usize) -> (Vec<u64>, Vec<Candidate>) {
        // A run already on the stack below must come through untouched.
        cs.insert(0, cand(99, 1, 0.0, 0.0, 0.0));
        let mut pages = vec![PageId::from_raw(77)];
        let survivors = reduce_candidates(&mut cs, 1, d_th_sq, u, &mut pages);
        assert_eq!(survivors, pages.len() + cs.len() - 1);
        assert_eq!(cs[0].page, PageId::from_raw(99));
        (pages.iter().map(|p| p.as_raw()).collect(), cs.split_off(1))
    }

    #[test]
    fn lemma1_accumulates_counts() {
        let cs = vec![
            cand(1, 3, 0.0, 1.0, 4.0),
            cand(2, 5, 1.0, 2.0, 9.0),
            cand(3, 10, 2.0, 3.0, 16.0),
        ];
        // k=3: first MBR (smallest Dmax) suffices.
        assert_eq!(lemma1(&cs, 3), Some(4.0));
        // k=4: need the second.
        assert_eq!(lemma1(&cs, 4), Some(9.0));
        // k=8: need the second (3+5=8).
        assert_eq!(lemma1(&cs, 8), Some(9.0));
        // k=9: need the third.
        assert_eq!(lemma1(&cs, 9), Some(16.0));
        // k beyond total: no bound.
        assert_eq!(lemma1(&cs, 100), None);
    }

    #[test]
    fn lemma1_sorts_by_dmax_not_input_order() {
        let cs = vec![cand(1, 5, 0.0, 1.0, 100.0), cand(2, 5, 0.0, 1.0, 1.0)];
        assert_eq!(lemma1(&cs, 5), Some(1.0));
    }

    #[test]
    fn lemma1_empty_and_zero_k() {
        assert_eq!(lemma1(&[], 1), None);
        assert_eq!(lemma1(&[], 0), Some(0.0));
    }

    #[test]
    fn lemma1_selection_is_the_sort_based_definition() {
        // Tied D_max values, zero counts (before, at and after the
        // deciding entry), every k up to and past the total.
        let mut state = 11u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for len in [1usize, 2, 3, 8, 21, 54, 168] {
            for round in 0..40 {
                let cs: Vec<Candidate> = (0..len)
                    .map(|i| {
                        // Few distinct D_max values: ties are the norm.
                        let d_max = next(if round % 2 == 0 { 4 } else { 1000 }) as f64 * 0.25;
                        let count = match next(4) {
                            0 => 0,
                            1 => 1,
                            _ => next(50),
                        };
                        cand(i as u64, count, 0.0, 0.0, d_max)
                    })
                    .collect();
                let total: u64 = cs.iter().map(|c| c.count).sum();
                let ks = [
                    0,
                    1,
                    2,
                    10,
                    total / 2,
                    total.saturating_sub(1),
                    total,
                    total + 1,
                ];
                for k in ks {
                    let want = lemma1_by_sort(&cs, k).map(f64::to_bits);
                    assert_eq!(lemma1(&cs, k).map(f64::to_bits), want, "k {k} of {cs:?}");
                }
            }
        }
        let tied = vec![
            cand(1, 0, 0.0, 0.0, 1.0),
            cand(2, 2, 0.0, 0.0, 2.0),
            cand(3, 0, 0.0, 0.0, 2.0),
            cand(4, 3, 0.0, 0.0, 2.0),
            cand(5, 0, 0.0, 0.0, 3.0),
        ];
        assert_eq!(lemma1(&tied, 5), Some(2.0));
        assert_eq!(lemma1(&tied, 6), None);
    }

    #[test]
    fn lemma1_keeps_only_the_deciding_prefix() {
        // Upper tree levels: any one subtree holds k objects, so whatever
        // the wavefront's width the prefix is one entry.
        let cs: Vec<Candidate> = (0..168)
            .map(|i| cand(i, 42, 0.0, 0.0, ((i * 37) % 168) as f64))
            .collect();
        let mut prefix = Vec::new();
        assert_eq!(lemma1_threshold_sq(&cs, 10, &mut prefix), Some(0.0));
        assert_eq!(prefix, vec![(0.0, 42)]);
        assert_eq!(lemma1_threshold_sq(&cs, 100, &mut prefix), Some(2.0));
        assert_eq!(prefix.len(), 3);
    }

    #[test]
    fn minmax_threshold_kth_smallest() {
        let cs = vec![
            cand(1, 9, 0.0, 4.0, 100.0),
            cand(2, 9, 0.0, 1.0, 100.0),
            cand(3, 9, 0.0, 9.0, 100.0),
        ];
        assert_eq!(minmax_threshold_sq(&cs, 1), Some(1.0));
        assert_eq!(minmax_threshold_sq(&cs, 2), Some(4.0));
        assert_eq!(minmax_threshold_sq(&cs, 3), Some(9.0));
        // Needs k distinct MBRs regardless of counts.
        assert_eq!(minmax_threshold_sq(&cs, 4), None);
        assert_eq!(minmax_threshold_sq(&cs, 0), Some(0.0));
        assert_eq!(minmax_threshold_sq(&[], 1), None);
    }

    #[test]
    fn minmax_can_tighten_lemma1() {
        // Large counts make Lemma 1 pick the first Dmax; MINMAXDIST can
        // still be far smaller.
        let cs = vec![cand(1, 100, 0.0, 0.5, 50.0), cand(2, 100, 0.0, 0.6, 60.0)];
        let lemma = lemma1(&cs, 2).unwrap();
        let mm = minmax_threshold_sq(&cs, 2).unwrap();
        assert!(mm < lemma, "mm {mm} vs lemma {lemma}");
    }

    #[test]
    fn criterion_thresholds() {
        let c = cand(1, 1, 4.0, 9.0, 16.0);
        assert_eq!(classify(&c, 3.0), Verdict::Reject); // Dth < Dmin
        assert_eq!(classify(&c, 4.0), Verdict::Save); // Dmin ≤ Dth ≤ Dmm
        assert_eq!(classify(&c, 9.0), Verdict::Save);
        assert_eq!(classify(&c, 9.5), Verdict::Activate); // Dth > Dmm
    }

    #[test]
    fn reduce_rejects_outside_sphere_and_fills_to_u() {
        let cs = vec![
            cand(1, 2, 0.0, 0.5, 1.0), // guaranteed useful (Dth 2 > Dmm .5)
            cand(2, 2, 1.5, 3.0, 5.0), // doubtful, still intersects
            cand(3, 2, 4.0, 6.0, 9.0), // reject (Dmin 4 > Dth 2)
        ];
        let (active, saved) = reduce(cs, 2.0, 10);
        // Both survivors fit within u=10 pages: full parallel activation.
        assert_eq!(active, vec![1, 2]);
        assert!(saved.is_empty());
    }

    #[test]
    fn reduce_prioritizes_guaranteed_useful_branches() {
        // With u=1 only one branch activates; the guaranteed-useful one
        // wins even though a doubtful one has smaller D_min.
        let cs = vec![
            cand(1, 2, 0.1, 5.0, 9.0), // doubtful (Dth 4 < Dmm 5)
            cand(2, 2, 0.3, 3.0, 9.0), // guaranteed (Dth 4 > Dmm 3)
        ];
        let (active, saved) = reduce(cs, 4.0, 1);
        assert_eq!(active, vec![2]);
        assert_eq!(saved.len(), 1);
        assert_eq!(saved[0].page, PageId::from_raw(1));
    }

    #[test]
    fn reduce_clamps_to_disk_count() {
        let cs: Vec<Candidate> = (0..8)
            .map(|i| cand(i, 10, i as f64 * 0.01, 0.5, 1.0)) // all activate
            .collect();
        let (active, saved) = reduce(cs, 2.0, 3);
        // The three best by D_min were kept.
        assert_eq!(active, vec![0, 1, 2]);
        assert_eq!(saved.len(), 5);
        // Saved stays sorted by D_min.
        for w in saved.windows(2) {
            assert!(w[0].d_min_sq <= w[1].d_min_sq);
        }
    }

    #[test]
    fn reduce_keeps_entry_order_among_equal_keys() {
        // Same class, same D_min: activation and the saved run both go by
        // position, whichever side of the `u` cut an entry lands on.
        let cs: Vec<Candidate> = (0..6).map(|i| cand(i, 1, 1.0, 9.0, 9.0)).collect();
        let (active, saved) = reduce(cs, 2.0, 2);
        assert_eq!(active, vec![0, 1]);
        let saved: Vec<u64> = saved.iter().map(|c| c.page.as_raw()).collect();
        assert_eq!(saved, vec![2, 3, 4, 5]);
    }

    #[test]
    fn reduce_with_insufficient_candidates() {
        let cs = vec![cand(1, 1, 0.0, 0.5, 1.0)];
        let (active, saved) = reduce(cs, 2.0, 4);
        assert_eq!(active, vec![1]);
        assert!(saved.is_empty());
    }
}

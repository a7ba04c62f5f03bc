//! The R\*-tree node split: ChooseSplitAxis + ChooseSplitIndex
//! (Beckmann et al., SIGMOD'90, Section 4.2).
//!
//! The split operates on MBRs only and returns index groups, so the same
//! code splits leaf and internal nodes.

use sqda_geom::Rect;

/// The outcome of a split: indices of the entries for each group.
/// `group1` keeps the original page; `group2` moves to the new page.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitResult {
    /// Indices (into the input slice) staying on the old page.
    pub group1: Vec<usize>,
    /// Indices moving to the newly allocated page.
    pub group2: Vec<usize>,
}

/// Splits `mbrs` (an overflowing node's `M+1` entries) into two groups,
/// each of size ≥ `m`.
///
/// Axis choice: for every axis, entries are sorted by lower and by upper
/// boundary; for each sort all legal distributions are generated and the
/// axis with the minimum total margin (perimeter) sum is chosen.
/// Distribution choice: on the chosen axis, the distribution with minimal
/// overlap between the two group MBRs wins; ties fall to minimal total
/// area, then to the more balanced distribution for determinism.
///
/// # Panics
///
/// Panics if `mbrs.len() < 2 * m` (no legal distribution) or `m == 0`.
pub fn rstar_split(mbrs: &[Rect], m: usize) -> SplitResult {
    assert!(m >= 1, "minimum fill must be at least 1");
    let total = mbrs.len();
    assert!(
        total >= 2 * m,
        "cannot split {total} entries with minimum fill {m}"
    );
    let dim = mbrs[0].dim();
    let num_dists = total - 2 * m + 1;

    let mut best_axis = 0usize;
    let mut best_margin = f64::INFINITY;
    let mut best_axis_sorts: Option<[Vec<usize>; 2]> = None;

    for axis in 0..dim {
        let sort_lo = sorted_indices(mbrs, |r| r.lo()[axis]);
        let sort_hi = sorted_indices(mbrs, |r| r.hi()[axis]);
        let mut margin_sum = 0.0;
        for sort in [&sort_lo, &sort_hi] {
            let (prefix, suffix) = prefix_suffix_boxes(mbrs, sort);
            for k in 0..num_dists {
                let split_at = m + k; // group1 = first m+k entries
                margin_sum += prefix[split_at - 1].margin() + suffix[split_at].margin();
            }
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
            best_axis_sorts = Some([sort_lo, sort_hi]);
        }
    }
    let _ = best_axis; // retained for debugging clarity

    let sorts = best_axis_sorts.expect("at least one axis");
    let mut best: Option<(f64, f64, usize, &Vec<usize>, usize)> = None;
    for sort in sorts.iter() {
        let (prefix, suffix) = prefix_suffix_boxes(mbrs, sort);
        for k in 0..num_dists {
            let split_at = m + k;
            let bb1 = &prefix[split_at - 1];
            let bb2 = &suffix[split_at];
            let overlap = bb1.intersection_area(bb2);
            let area = bb1.area() + bb2.area();
            // Balance criterion: distance from an even split (tie-break).
            let imbalance = (total as isize - 2 * split_at as isize).unsigned_abs();
            let better = match &best {
                None => true,
                Some((bo, ba, bi, _, _)) => {
                    overlap < *bo
                        || (overlap == *bo && area < *ba)
                        || (overlap == *bo && area == *ba && imbalance < *bi)
                }
            };
            if better {
                best = Some((overlap, area, imbalance, sort, split_at));
            }
        }
    }
    let (_, _, _, sort, split_at) = best.expect("at least one distribution");
    SplitResult {
        group1: sort[..split_at].to_vec(),
        group2: sort[split_at..].to_vec(),
    }
}

fn sorted_indices(mbrs: &[Rect], key: impl Fn(&Rect) -> f64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..mbrs.len()).collect();
    idx.sort_by(|&a, &b| {
        key(&mbrs[a])
            .partial_cmp(&key(&mbrs[b]))
            .expect("finite coordinates")
            .then(a.cmp(&b))
    });
    idx
}

/// For a sorted order, returns (`prefix[i]` = bb of entries `0..=i`,
/// `suffix[i]` = bb of entries `i..`).
fn prefix_suffix_boxes(mbrs: &[Rect], order: &[usize]) -> (Vec<Rect>, Vec<Rect>) {
    let n = order.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = mbrs[order[0]].clone();
    prefix.push(acc.clone());
    for &i in &order[1..] {
        acc.union_in_place(&mbrs[i]);
        prefix.push(acc.clone());
    }
    let mut suffix = vec![mbrs[order[n - 1]].clone(); n];
    for j in (0..n - 1).rev() {
        let mut r = suffix[j + 1].clone();
        r.union_in_place(&mbrs[order[j]]);
        suffix[j] = r;
    }
    (prefix, suffix)
}

/// Selects the entries to evict for R\* forced reinsertion: the `p`
/// entries whose centers are farthest from the node MBR's center,
/// returned in **decreasing** distance order. Reinsertion then proceeds
/// from the *closest* of the evicted entries ("close reinsert" performed
/// by the caller iterating in reverse).
pub fn reinsert_victims(mbrs: &[Rect], p: usize) -> Vec<usize> {
    assert!(p < mbrs.len(), "cannot evict {p} of {} entries", mbrs.len());
    let node_mbr = Rect::union_all(mbrs.iter()).expect("non-empty node");
    let center = node_mbr.center();
    // Each entry's distance once, not once per comparison.
    let dist: Vec<f64> = mbrs.iter().map(|r| r.center().dist_sq(&center)).collect();
    let mut idx: Vec<usize> = (0..mbrs.len()).collect();
    idx.sort_by(|&a, &b| {
        dist[b]
            .partial_cmp(&dist[a])
            .expect("finite coordinates")
            .then(a.cmp(&b))
    });
    idx.truncate(p);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    fn pt(x: f64, y: f64) -> Rect {
        rect(&[x, y], &[x, y])
    }

    #[test]
    fn split_respects_min_fill() {
        let mbrs: Vec<Rect> = (0..11).map(|i| pt(i as f64, 0.0)).collect();
        let m = 4;
        let r = rstar_split(&mbrs, m);
        assert!(r.group1.len() >= m);
        assert!(r.group2.len() >= m);
        assert_eq!(r.group1.len() + r.group2.len(), 11);
        // Each index appears exactly once.
        let mut all: Vec<usize> = r.group1.iter().chain(&r.group2).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two well-separated clusters along x must split cleanly.
        let mut mbrs = Vec::new();
        for i in 0..5 {
            mbrs.push(pt(i as f64 * 0.1, 0.0));
        }
        for i in 0..5 {
            mbrs.push(pt(100.0 + i as f64 * 0.1, 0.0));
        }
        let r = rstar_split(&mbrs, 2);
        let g1_max = r
            .group1
            .iter()
            .map(|&i| mbrs[i].lo()[0])
            .fold(f64::MIN, f64::max);
        let g2_min = r
            .group2
            .iter()
            .map(|&i| mbrs[i].lo()[0])
            .fold(f64::MAX, f64::min);
        let g1_min = r
            .group1
            .iter()
            .map(|&i| mbrs[i].lo()[0])
            .fold(f64::MAX, f64::min);
        let g2_max = r
            .group2
            .iter()
            .map(|&i| mbrs[i].lo()[0])
            .fold(f64::MIN, f64::max);
        // One group entirely below the other.
        assert!(g1_max < g2_min || g2_max < g1_min);
    }

    #[test]
    fn split_picks_discriminating_axis() {
        // Clusters separated along y, mixed along x: split must use y.
        let mut mbrs = Vec::new();
        for i in 0..6 {
            mbrs.push(pt((i % 3) as f64, 0.0));
            mbrs.push(pt((i % 3) as f64, 50.0));
        }
        let r = rstar_split(&mbrs, 3);
        let y_of =
            |idx: &Vec<usize>| -> Vec<f64> { idx.iter().map(|&i| mbrs[i].lo()[1]).collect() };
        let g1 = y_of(&r.group1);
        let g2 = y_of(&r.group2);
        assert!(
            g1.iter().all(|&y| y == g1[0]),
            "group1 mixes clusters: {g1:?}"
        );
        assert!(g2.iter().all(|&y| y == g2[0]));
    }

    #[test]
    fn split_zero_overlap_when_possible() {
        let mbrs: Vec<Rect> = (0..10).map(|i| pt(i as f64, i as f64)).collect();
        let r = rstar_split(&mbrs, 4);
        let bb1 = Rect::union_all(r.group1.iter().map(|&i| &mbrs[i])).unwrap();
        let bb2 = Rect::union_all(r.group2.iter().map(|&i| &mbrs[i])).unwrap();
        assert_eq!(bb1.intersection_area(&bb2), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn too_few_entries_panics() {
        let mbrs: Vec<Rect> = (0..3).map(|i| pt(i as f64, 0.0)).collect();
        rstar_split(&mbrs, 2);
    }

    #[test]
    fn split_handles_identical_rects() {
        let mbrs: Vec<Rect> = (0..9).map(|_| pt(1.0, 1.0)).collect();
        let r = rstar_split(&mbrs, 4);
        assert!(r.group1.len() >= 4 && r.group2.len() >= 4);
    }

    #[test]
    fn split_of_real_rects_in_3d() {
        let mbrs: Vec<Rect> = (0..12)
            .map(|i| {
                let f = i as f64;
                rect(&[f, f * 2.0, -f], &[f + 1.0, f * 2.0 + 0.5, -f + 2.0])
            })
            .collect();
        let r = rstar_split(&mbrs, 5);
        assert_eq!(r.group1.len() + r.group2.len(), 12);
        assert!(r.group1.len() >= 5 && r.group2.len() >= 5);
    }

    #[test]
    fn reinsert_victims_are_farthest() {
        // Points clustered at origin plus outliers.
        let mbrs = vec![
            pt(0.0, 0.0),
            pt(0.1, 0.1),
            pt(-0.1, 0.0),
            pt(10.0, 10.0), // outlier a
            pt(0.0, 0.2),
            pt(-12.0, 0.0), // outlier b
        ];
        let victims = reinsert_victims(&mbrs, 2);
        let mut v = victims.clone();
        v.sort_unstable();
        assert_eq!(v, vec![3, 5]);
        // Decreasing distance order: center of node MBR is approx (-1, 5)
        // — verify ordering property rather than exact order.
        let node = Rect::union_all(mbrs.iter()).unwrap();
        let c = node.center();
        let d0 = mbrs[victims[0]].center().dist_sq(&c);
        let d1 = mbrs[victims[1]].center().dist_sq(&c);
        assert!(d0 >= d1);
    }

    #[test]
    #[should_panic(expected = "cannot evict")]
    fn reinsert_all_entries_panics() {
        let mbrs = vec![pt(0.0, 0.0), pt(1.0, 1.0)];
        reinsert_victims(&mbrs, 2);
    }

    #[test]
    fn prefix_suffix_cover_everything() {
        let mbrs: Vec<Rect> = (0..6).map(|i| pt(i as f64, -(i as f64))).collect();
        let order: Vec<usize> = (0..6).collect();
        let (prefix, suffix) = prefix_suffix_boxes(&mbrs, &order);
        let full = Rect::union_all(mbrs.iter()).unwrap();
        assert_eq!(prefix[5], full);
        assert_eq!(suffix[0], full);
        for i in 0..6 {
            assert!(full.contains_rect(&prefix[i]));
            assert!(full.contains_rect(&suffix[i]));
        }
    }
}

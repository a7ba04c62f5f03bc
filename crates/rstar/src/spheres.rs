//! The SS-tree's bound: spheres (White & Jain, ICDE'96).
//!
//! A directory entry bounds its subtree with the count-weighted centroid
//! of its entries and the smallest radius around it that covers them.
//! Spheres store `d + 1` words instead of the MBR's `2d`, so directory
//! fan-out is nearly double the R\*-tree's at the same page size. An
//! insert descends to the nearest centroid; an overflowing node splits
//! along its dimension of greatest variance; a new node goes to the disk
//! whose resident siblings its sphere overlaps least. Everything else —
//! pages, cache, insertion, validation — is the shared paged tree.

use crate::config::TreeConfig;
use crate::node::Node;
use crate::tree::{Bound, PagedTree, Result};
use sqda_geom::kernel::dist_sq;
use sqda_storage::{DiskId, PageStore};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Spheres: a directory entry's bound is `dim` center words, then the
/// radius.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spheres;

/// A declustered SS-tree over a disk-array page store.
pub type SsTree<S> = PagedTree<S, Spheres>;

/// Configuration of an SS-tree.
pub type SsConfig = TreeConfig<Spheres>;

impl<S: PageStore> PagedTree<S, Spheres> {
    /// Creates an empty tree: a single empty leaf, placed on disk 0.
    /// Nodes placed without siblings to weigh against go round robin
    /// from disk 1.
    pub fn create(store: Arc<S>, config: SsConfig) -> Result<Self> {
        Self::create_with(store, config, AtomicU64::new(1))
    }
}

/// Entry `i`'s sphere: a leaf entry is its point, of radius 0.
fn sphere(node: &Node, i: usize) -> (&[f64], f64) {
    let (words, _) = node.entry(i);
    match words.split_at(node.dim()) {
        (center, [radius]) => (center, *radius),
        (point, _) => (point, 0.0),
    }
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

impl Bound for Spheres {
    /// The next disk for round-robin placement.
    type Placer = AtomicU64;
    const NAME: &'static str = "SsTree";
    const MAGIC: &'static [u8; 4] = b"SSTN";
    const SPHERES: bool = true;

    fn words(dim: usize) -> usize {
        dim + 1
    }

    fn check(bound: &[f64]) -> std::result::Result<(), String> {
        match bound.last() {
            Some(&r) if !r.is_finite() || r < 0.0 => Err(format!("bad radius {r}")),
            _ => Ok(()),
        }
    }

    /// The count-weighted centroid (a leaf's points weigh one each) and
    /// the smallest radius around it covering every child sphere or
    /// point.
    fn bound(node: &Node) -> Vec<f64> {
        debug_assert!(!node.is_empty(), "tree nodes below the root are non-empty");
        let n = node.len();
        let mut center = vec![0.0f64; node.dim()];
        if node.is_leaf() {
            for i in 0..n {
                for (c, v) in center.iter_mut().zip(node.leaf_point(i)) {
                    *c += v;
                }
            }
            for c in &mut center {
                *c /= n as f64;
            }
        } else {
            let total = node.object_count();
            for i in 0..n {
                let w = node.internal_count(i) as f64 / total as f64;
                for (c, v) in center.iter_mut().zip(sphere(node, i).0) {
                    *c += w * v;
                }
            }
        }
        let radius = radius_around(&center, node);
        center.push(radius);
        center
    }

    /// Every point or sphere of the child lies within the entry's sphere,
    /// up to rounding.
    fn covers(bound: &[f64], child: &Node) -> bool {
        let (center, radius) = bound.split_at(bound.len() - 1);
        let required = radius_around(center, child);
        radius[0] + 1e-9 * (1.0 + required) >= required
    }

    /// The entry whose centroid is nearest, the first of equals.
    fn choose_subtree(node: &Node, entry: &[f64]) -> usize {
        let d = |i| dist_sq(sphere(node, i).0, entry);
        (0..node.len())
            .min_by(|&a, &b| d(a).partial_cmp(&d(b)).expect("finite"))
            .expect("internal nodes are non-empty")
    }

    /// Variance split: the dimension along which the entry centers vary
    /// most, sorted, cut where the two groups' summed variance is least.
    fn split(config: &TreeConfig<Self>, node: &Node) -> (Vec<usize>, Vec<usize>) {
        let m = config.min_entries(node.is_leaf());
        let centers: Vec<&[f64]> = (0..node.len()).map(|i| sphere(node, i).0).collect();
        variance_split(&centers, m)
    }

    fn evict(_: &TreeConfig<Self>, _: &Node) -> Option<Vec<usize>> {
        None
    }

    /// The disk whose sibling spheres the new sphere overlaps least (the
    /// Proximity Index idea in sphere geometry), ties broken towards data
    /// balance; round robin with no siblings to weigh.
    fn place<S: PageStore>(
        tree: &PagedTree<S, Self>,
        bound: &[f64],
        parent: Option<&Node>,
    ) -> Result<DiskId> {
        let num = tree.store.num_disks() as usize;
        let Some(parent) = parent else {
            let d = tree.placer.fetch_add(1, Relaxed);
            return Ok(DiskId((d % num as u64) as u32));
        };
        let (center, radius) = bound.split_at(bound.len() - 1);
        let mut proximity = vec![0.0f64; num];
        for i in 0..parent.len() {
            let (c, r) = sphere(parent, i);
            let disk = tree.store.placement(parent.internal_child(i))?.disk;
            // Overlap depth of the two spheres (0 when disjoint).
            let gap = dist(center, c) - (radius[0] + r);
            proximity[disk.index()] += (-gap).max(0.0);
        }
        let pages = tree.store.pages_per_disk();
        let pages = |d: usize| pages.get(d).copied().unwrap_or(0);
        let best = (0..num)
            .min_by(|&a, &b| {
                proximity[a]
                    .partial_cmp(&proximity[b])
                    .expect("finite")
                    .then(pages(a).cmp(&pages(b)))
                    .then(a.cmp(&b))
            })
            .unwrap_or(0);
        Ok(DiskId(best as u32))
    }
}

/// The smallest radius around `center` covering every sphere or point of
/// `node`.
fn radius_around(center: &[f64], node: &Node) -> f64 {
    (0..node.len())
        .map(|i| {
            let (c, r) = sphere(node, i);
            dist(center, c) + r
        })
        .fold(0.0f64, f64::max)
}

fn variance_split(centers: &[&[f64]], m: usize) -> (Vec<usize>, Vec<usize>) {
    let n = centers.len();
    debug_assert!(n >= 2 * m);
    // Dimension of maximum variance.
    let mut best_dim = 0;
    let mut best_var = f64::NEG_INFINITY;
    for d in 0..centers[0].len() {
        let mean: f64 = centers.iter().map(|c| c[d]).sum::<f64>() / n as f64;
        let var: f64 = centers
            .iter()
            .map(|c| {
                let x = c[d] - mean;
                x * x
            })
            .sum::<f64>();
        if var > best_var {
            best_var = var;
            best_dim = d;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        centers[a][best_dim]
            .partial_cmp(&centers[b][best_dim])
            .expect("finite")
            .then(a.cmp(&b))
    });
    // Prefix sums of x and x² along the split dimension for O(1) group
    // variances.
    let mut sum = vec![0.0f64; n + 1];
    let mut sum2 = vec![0.0f64; n + 1];
    for (i, &e) in order.iter().enumerate() {
        let x = centers[e][best_dim];
        sum[i + 1] = sum[i] + x;
        sum2[i + 1] = sum2[i] + x * x;
    }
    let group_var = |lo: usize, hi: usize| -> f64 {
        let s = sum[hi] - sum[lo];
        (sum2[hi] - sum2[lo]) - s * s / (hi - lo) as f64
    };
    let mut best_cut = m;
    let mut best_cost = f64::INFINITY;
    for cut in m..=(n - m) {
        let cost = group_var(0, cut) + group_var(cut, n);
        if cost < best_cost {
            best_cost = cost;
            best_cut = cut;
        }
    }
    (order[..best_cut].to_vec(), order[best_cut..].to_vec())
}

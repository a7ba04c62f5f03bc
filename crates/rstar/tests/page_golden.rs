//! Pins the pages that one-at-a-time SS-tree insertion produces.
//!
//! Centroid descent, the variance split, sphere placement and the
//! bounding-sphere arithmetic together decide every byte the SS-tree
//! writes, so any change to how they are computed must leave the tree
//! bit for bit as it was. Each case inserts a clustered dataset and
//! checks:
//!
//! * an FNV-1a digest over every page reachable from the root (page id,
//!   hosting disk, level, coordinate bits, payload words), in DFS order;
//! * the store's page writes (`IoStats::writes`);
//! * the pages allocated per disk.
//!
//! Reads are not pinned: they count how often insertion re-reads a page,
//! not what it writes.

use sqda_geom::Point;
use sqda_rstar::{SsConfig, SsTree};
use sqda_storage::{ArrayStore, PageStore};
use std::sync::Arc;

const DISKS: u32 = 10;

/// One case's pinned figures: `(digest, writes, pages per disk)`.
type Pinned = (u64, u64, [usize; DISKS as usize]);

fn fnv1a(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn pinned(tree: &SsTree<ArrayStore>) -> Pinned {
    let writes = tree.store().stats().writes;
    let pages: [usize; DISKS as usize] = tree.store().pages_per_disk().try_into().unwrap();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node(page).unwrap();
        fnv1a(&mut hash, page.as_raw());
        fnv1a(
            &mut hash,
            tree.store().placement(page).unwrap().disk.0.into(),
        );
        fnv1a(&mut hash, node.level().into());
        // A leaf's points and object ids; a directory's centers, each
        // followed by its radius, and its `[child, count]` pairs.
        node.coords()
            .iter()
            .for_each(|c| fnv1a(&mut hash, c.to_bits()));
        node.payload().iter().for_each(|&w| fnv1a(&mut hash, w));
        if !node.is_leaf() {
            stack.extend(node.children());
        }
    }
    (hash, writes, pages)
}

#[test]
fn insertion_pages_are_pinned_across_dims_and_page_sizes() {
    #[rustfmt::skip]
    let golden: [(usize, usize, Pinned); 6] = [
        (2, 1024, (359483443508995603, 5269, [8, 7, 7, 8, 8, 8, 7, 7, 7, 7])),
        (2, 4096, (1372282594943781327, 3848, [3, 2, 2, 2, 2, 2, 1, 2, 1, 2])),
        (5, 1024, (16378896244674916532, 5905, [18, 13, 16, 13, 17, 15, 17, 16, 12, 14])),
        (5, 4096, (1406899325312912580, 3947, [3, 4, 4, 2, 4, 3, 1, 5, 2, 5])),
        (10, 1024, (17190184537042690442, 7759, [32, 32, 31, 31, 31, 31, 31, 31, 31, 31])),
        (10, 4096, (10667698004474559217, 4748, [8, 4, 8, 7, 5, 7, 8, 7, 7, 6])),
    ];
    let mut drifted = Vec::new();
    for dim in [2usize, 5, 10] {
        for page_size in [1024usize, 4096] {
            let points = sqda_datasets::gaussian_clusters(2000, dim, 8, dim as u64).points;
            let store = Arc::new(ArrayStore::with_page_size(DISKS, 1449, page_size, 7));
            let mut tree = SsTree::create(store, SsConfig::with_page_size(dim, page_size)).unwrap();
            for (i, p) in points.iter().enumerate() {
                tree.insert(Point::clone(p), i as u64).unwrap();
            }
            assert!(tree.validate().unwrap().is_ok());
            let reads = tree.store().stats().reads;
            eprintln!(
                "{dim}-d, {page_size} B: {:.2} store reads per insert",
                reads as f64 / points.len() as f64
            );
            let got = pinned(&tree);
            let want = golden.iter().find(|g| (g.0, g.1) == (dim, page_size));
            if want.map(|g| g.2) != Some(got) {
                drifted.push(format!("({dim}, {page_size}, {got:?}),"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "SS-tree pages drifted:\n{}",
        drifted.join("\n")
    );
}

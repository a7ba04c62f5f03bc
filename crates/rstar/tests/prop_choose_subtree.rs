//! Property test for the R\*-tree's ChooseSubtree: the branch-and-bound
//! rule picks exactly the entry the textbook O(M²) rule picks.
//!
//! The textbook rule lives only here, as the reference. Nodes draw 1–6
//! dimensions and 2–100 entries, so both sides of the 32-candidate cut
//! run; lattice coordinates, so area, enlargement and overlap ties
//! happen; zero-width rectangles; query points on children's corners
//! and edges, so a point lies inside several children; and coordinates
//! near ±1e300 and ±1e308, so areas overflow to infinity and keys to NaN.
//! Where the reference panics (a NaN enlargement in the cut's sort), the
//! rule under test must panic too.

use sqda_geom::prop::{self, check};
use sqda_geom::{rng::Rng, Rect, RectRef};
use sqda_rstar::{Bound, InternalEntry, Node, Rects};
use sqda_storage::PageId;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u32 = 1000;

/// Today's R\* ChooseSubtree, computed in full: every candidate's
/// overlap enlargement against every sibling, then the least key
/// `(overlap enlargement, area enlargement, area)`, the first in visiting
/// order on a tie. Also says whether some candidate tied the best key,
/// and whether an area or an enlargement was NaN.
fn reference(node: &Node, entry: &[f64]) -> (usize, bool, bool) {
    let mbr = if entry.len() == node.dim() {
        RectRef::new(entry, entry)
    } else {
        let (lo, hi) = entry.split_at(entry.len() / 2);
        RectRef::new(lo, hi)
    };
    let rects = || (0..node.len()).map(|i| node.internal_rect(i));
    let area: Vec<f64> = rects().map(|r| r.area()).collect();
    let enlargement: Vec<f64> = rects().map(|r| r.enlargement(mbr)).collect();
    let nan = area.iter().chain(&enlargement).any(|v| v.is_nan());
    let mut best = 0;
    let mut tie = false;
    if node.level() == 1 {
        let mut candidates: Vec<usize> = (0..node.len()).collect();
        if candidates.len() > 32 {
            candidates.sort_by(|&a, &b| {
                let (ea, eb) = (enlargement[a], enlargement[b]);
                ea.partial_cmp(&eb).expect("finite").then(a.cmp(&b))
            });
            candidates.truncate(32);
        }
        best = candidates[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let d = node.dim();
        for &i in &candidates {
            let r = node.internal_rect(i);
            let lo: Vec<f64> = (0..d).map(|k| r.lo()[k].min(mbr.lo()[k])).collect();
            let hi: Vec<f64> = (0..d).map(|k| r.hi()[k].max(mbr.hi()[k])).collect();
            let enlarged = RectRef::new(&lo, &hi);
            let mut overlap_delta = 0.0;
            for (j, other) in rects().enumerate() {
                if j != i {
                    overlap_delta += enlarged.intersection_area(other) - r.intersection_area(other);
                }
            }
            let key = (overlap_delta, enlargement[i], area[i]);
            tie |= key == best_key;
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
    } else {
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for i in 0..node.len() {
            let key = (enlargement[i], area[i]);
            tie |= key == best_key;
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
    }
    (best, tie, nan)
}

/// How coordinates are drawn: `unit` times a lattice value in -4..=4
/// (ties; with a tiny unit, underflowing areas; with a huge one,
/// overflowing areas), or uniform floats.
#[derive(Debug, Clone, Copy)]
enum Coords {
    Lattice { unit: f64 },
    Uniform,
}

impl Coords {
    fn draw(rng: &mut Rng) -> Self {
        match rng.gen_range(0..8) {
            0..=2 => Coords::Lattice { unit: 1.0 },
            3 => Coords::Lattice { unit: 1e-160 },
            4 | 5 => Coords::Lattice { unit: 2.5e299 },
            6 => Coords::Lattice { unit: 2.5e307 },
            _ => Coords::Uniform,
        }
    }

    /// A low corner coordinate and a width, zero two times in five.
    fn side(self, rng: &mut Rng) -> (f64, f64) {
        let zero = rng.gen_bool(0.4);
        match self {
            Coords::Lattice { unit } => {
                let lo = rng.gen_range(-4i32..=4) as f64 * unit;
                let width = if zero { 0 } else { rng.gen_range(1i32..=3) };
                (lo, lo + width as f64 * unit)
            }
            Coords::Uniform => {
                let lo = rng.gen_range(-1.0..1.0);
                let width = if zero { 0.0 } else { rng.gen_range(0.0..0.5) };
                (lo, lo + width)
            }
        }
    }
}

/// A directory node (level 1 three times in four, so its children are
/// leaves) and an entry to place: a point or a rectangle.
#[derive(Debug)]
struct Case {
    node: Node,
    entry: Vec<f64>,
}

fn case(rng: &mut Rng, size: usize) -> Case {
    let dim = rng.gen_range(1..=6);
    let coords = Coords::draw(rng);
    let level = if rng.gen_bool(0.75) { 1 } else { 2 };
    let rects: Vec<(Vec<f64>, Vec<f64>)> = (0..prop::len(rng, size, 2..101))
        .map(|_| (0..dim).map(|_| coords.side(rng)).unzip())
        .collect();
    let entries: Vec<InternalEntry> = rects
        .iter()
        .enumerate()
        .map(|(i, (lo, hi))| {
            let rect = Rect::new(lo.clone(), hi.clone()).expect("valid rectangle");
            InternalEntry::new(rect, PageId::from_raw(i as u64), 1)
        })
        .collect();
    // Each coordinate of the entry: a child's corner (on an edge), the
    // middle of a child's side (inside it), or a fresh draw.
    let coordinate = |rng: &mut Rng, d: usize| {
        let (lo, hi) = &rects[rng.gen_range(0..rects.len())];
        match rng.gen_range(0..3) {
            0 => [lo[d], hi[d]][rng.gen_range(0..2usize)],
            1 => lo[d] / 2.0 + hi[d] / 2.0,
            _ => coords.side(rng).0,
        }
    };
    let mut entry: Vec<f64> = (0..dim).map(|d| coordinate(rng, d)).collect();
    if rng.gen_bool(0.3) {
        // A rectangle entry (a reinserted subtree): low corner, then high.
        let hi: Vec<f64> = (0..dim).map(|d| entry[d].max(coordinate(rng, d))).collect();
        entry.extend(hi);
    }
    Case {
        node: Node::from_internal_entries(level, &entries),
        entry,
    }
}

/// What the drawn cases reached, so that a generator change that stops
/// drawing one of them fails the test.
#[derive(Default)]
struct Reached {
    above_cut: Cell<u32>,
    below_cut: Cell<u32>,
    overflowed: Cell<u32>,
    nan_keys: Cell<u32>,
    both_panicked: Cell<u32>,
    inside_several: Cell<u32>,
    tied: Cell<u32>,
}

fn bump(c: &Cell<u32>) {
    c.set(c.get() + 1);
}

#[test]
fn choose_subtree_matches_the_full_rule() {
    let reached = Reached::default();
    check("choose_subtree_matches_the_full_rule", CASES, case, |c| {
        let want = catch_unwind(AssertUnwindSafe(|| reference(&c.node, &c.entry)));
        let got = catch_unwind(AssertUnwindSafe(|| {
            Rects::choose_subtree(&c.node, &c.entry)
        }));
        match (&want, &got) {
            (Ok((want, ..)), Ok(got)) => assert_eq!(got, want, "entry {:?}", c.entry),
            (Err(_), Err(_)) => bump(&reached.both_panicked),
            _ => panic!(
                "reference {:?}, rule under test {:?}",
                want.as_ref().map(|w| w.0).map_err(|_| "panicked"),
                got.as_ref().map_err(|_| "panicked")
            ),
        }
        let Ok((_, tie, nan)) = want else { return };
        if c.node.level() != 1 {
            return;
        }
        let n = c.node.len();
        bump(if n > 32 {
            &reached.above_cut
        } else {
            &reached.below_cut
        });
        if (0..n).any(|i| c.node.internal_rect(i).area().is_infinite()) {
            bump(&reached.overflowed);
        }
        if nan {
            bump(&reached.nan_keys);
        }
        let d = c.node.dim();
        let inside = (0..n)
            .filter(|&i| c.node.internal_rect(i).contains_coords(&c.entry[..d]))
            .count();
        if c.entry.len() == d && inside >= 2 {
            bump(&reached.inside_several);
        }
        if tie {
            bump(&reached.tied);
        }
    });
    let counts = [
        ("above the cut", &reached.above_cut),
        ("below the cut", &reached.below_cut),
        ("an infinite area", &reached.overflowed),
        ("a NaN area or enlargement", &reached.nan_keys),
        ("both panicked", &reached.both_panicked),
        ("a point inside several children", &reached.inside_several),
        ("tied keys", &reached.tied),
    ];
    for (what, count) in counts {
        assert!(count.get() > 0, "no case reached {what}");
    }
}

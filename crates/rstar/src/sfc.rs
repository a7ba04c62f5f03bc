//! Space-filling-curve orderings: Z-order (Morton) in any dimension and
//! the Hilbert curve in 2-d.
//!
//! The paper cites the Hilbert R-tree (Kamel & Faloutsos, VLDB'94) among
//! the split-policy refinements of the R-tree family. Its essential
//! ingredient — a total order on points that preserves spatial locality —
//! is also the basis of curve-ordered tree packing, provided here as an
//! alternative to STR bulk loading ([`crate::RStarTree::bulk_load`]).

use sqda_geom::Point;

/// Bits of precision per dimension used when quantizing coordinates.
const BITS: u32 = 16;

/// Quantizes a coordinate into `[0, 2^BITS)` given the data bounds.
fn quantize(value: f64, lo: f64, hi: f64) -> u64 {
    if hi <= lo {
        return 0;
    }
    let t = ((value - lo) / (hi - lo)).clamp(0.0, 1.0);
    let max = (1u64 << BITS) - 1;
    (t * max as f64).round() as u64
}

/// The Morton (Z-order) key of a point, interleaving `BITS` bits of each
/// quantized coordinate. Works in any dimension (up to 8 dimensions fit
/// a `u128`).
///
/// # Panics
///
/// Panics if `dim > 8` (the key would overflow 128 bits).
pub fn morton_key(point: &Point, lo: &[f64], hi: &[f64]) -> u128 {
    let coords = point.coords();
    let dim = coords.len();
    assert!(dim <= 8, "Morton keys support up to 8 dimensions");
    let quantized: Vec<u64> = (0..dim)
        .map(|d| quantize(coords[d], lo[d], hi[d]))
        .collect();
    let mut key: u128 = 0;
    for bit in (0..BITS).rev() {
        for q in &quantized {
            key = (key << 1) | (((q >> bit) & 1) as u128);
        }
    }
    key
}

/// The Hilbert-curve key of a 2-d point (order-`BITS` curve), using the
/// classic rotate-and-reflect construction.
///
/// # Panics
///
/// Panics unless the point is 2-dimensional.
pub fn hilbert_key_2d(point: &Point, lo: &[f64], hi: &[f64]) -> u64 {
    let coords = point.coords();
    assert_eq!(coords.len(), 2, "Hilbert keys are 2-d only");
    let n: u64 = 1 << BITS;
    let mut x = quantize(coords[0], lo[0], hi[0]);
    let mut y = quantize(coords[1], lo[1], hi[1]);
    let mut d: u64 = 0;
    let mut s = n / 2;
    while s > 0 {
        let rx = u64::from((x & s) > 0);
        let ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate/reflect the quadrant (canonical xy2d step).
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p2(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    #[test]
    fn quantize_bounds() {
        assert_eq!(quantize(0.0, 0.0, 1.0), 0);
        assert_eq!(quantize(1.0, 0.0, 1.0), (1 << BITS) - 1);
        assert_eq!(quantize(-5.0, 0.0, 1.0), 0); // clamped
        assert_eq!(quantize(0.5, 0.5, 0.5), 0); // degenerate range
    }

    #[test]
    fn morton_orders_quadrants() {
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        // The four quadrant corners follow Z order: (0,0) < (1,0)-ish
        // interleaving: x bit is more significant in our interleave
        // (first dimension first).
        let k00 = morton_key(&p2(0.1, 0.1), &lo, &hi);
        let k01 = morton_key(&p2(0.1, 0.9), &lo, &hi);
        let k10 = morton_key(&p2(0.9, 0.1), &lo, &hi);
        let k11 = morton_key(&p2(0.9, 0.9), &lo, &hi);
        assert!(k00 < k01 && k01 < k10 && k10 < k11);
    }

    #[test]
    fn morton_locality() {
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        let a = morton_key(&p2(0.30, 0.30), &lo, &hi);
        let near = morton_key(&p2(0.30001, 0.30001), &lo, &hi);
        let far = morton_key(&p2(0.95, 0.95), &lo, &hi);
        assert!(a.abs_diff(near) < a.abs_diff(far));
    }

    #[test]
    fn morton_high_dim() {
        let dim = 8;
        let lo = vec![0.0; dim];
        let hi = vec![1.0; dim];
        let a = morton_key(&Point::splat(dim, 0.1), &lo, &hi);
        let b = morton_key(&Point::splat(dim, 0.9), &lo, &hi);
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "up to 8 dimensions")]
    fn morton_too_many_dims() {
        let dim = 9;
        morton_key(&Point::splat(dim, 0.5), &vec![0.0; dim], &vec![1.0; dim]);
    }

    #[test]
    fn hilbert_keys_are_distinct_and_local() {
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        // Distinctness over a grid.
        let mut keys = std::collections::HashSet::new();
        for gx in 0..32 {
            for gy in 0..32 {
                let k = hilbert_key_2d(&p2(gx as f64 / 32.0, gy as f64 / 32.0), &lo, &hi);
                assert!(keys.insert(k), "duplicate key at ({gx},{gy})");
            }
        }
        // Locality: walking the curve, consecutive grid cells along the
        // curve are spatial neighbours. Check the converse cheaply: the
        // average key distance of spatial neighbours is far below that of
        // random pairs.
        let key = |x: f64, y: f64| hilbert_key_2d(&p2(x, y), &lo, &hi) as f64;
        let mut neighbour = 0.0;
        let mut random = 0.0;
        let mut count = 0.0;
        for i in 0..31 {
            let x = i as f64 / 32.0;
            neighbour += (key(x, 0.5) - key(x + 1.0 / 32.0, 0.5)).abs();
            random += (key(x, 0.5) - key(1.0 - x, 1.0 - x)).abs();
            count += 1.0;
        }
        assert!(neighbour / count < random / count);
    }

    #[test]
    fn hilbert_first_quadrant_is_smallest() {
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        let k_origin = hilbert_key_2d(&p2(0.01, 0.01), &lo, &hi);
        for (x, y) in [(0.9, 0.1), (0.9, 0.9), (0.1, 0.9)] {
            assert!(k_origin < hilbert_key_2d(&p2(x, y), &lo, &hi));
        }
    }
}

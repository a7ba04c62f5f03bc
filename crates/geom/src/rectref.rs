//! A borrowed MBR view over flat coordinate storage.
//!
//! Decoded R\*-tree nodes keep all entry coordinates in one contiguous
//! buffer; [`RectRef`] lets the distance metrics and overlap predicates
//! run directly on those slices without materialising a boxed [`Rect`]
//! per entry. [`Rect`] delegates its metric implementations here, so an
//! owned rectangle and a view over the same corners produce bit-identical
//! results — the determinism of the experiment pipeline depends on that.

use crate::{Point, Rect};

/// A borrowed axis-aligned rectangle: low and high corner slices.
///
/// The slices must have equal, non-zero length; `lo[d] <= hi[d]` is the
/// caller's invariant (views are taken over already-validated rectangles,
/// e.g. decoded nodes).
#[derive(Debug, Clone, Copy)]
pub struct RectRef<'a> {
    lo: &'a [f64],
    hi: &'a [f64],
}

impl<'a> RectRef<'a> {
    /// Creates a view from corner slices.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slices differ in length or are empty.
    #[inline]
    pub fn new(lo: &'a [f64], hi: &'a [f64]) -> Self {
        debug_assert_eq!(lo.len(), hi.len(), "corner slices must match");
        debug_assert!(!lo.is_empty(), "rectangles need at least 1 dimension");
        Self { lo, hi }
    }

    /// The dimensionality of the rectangle.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Low corner coordinates.
    #[inline]
    pub fn lo(&self) -> &'a [f64] {
        self.lo
    }

    /// High corner coordinates.
    #[inline]
    pub fn hi(&self) -> &'a [f64] {
        self.hi
    }

    /// Materialises an owned [`Rect`] with the same corners.
    ///
    /// # Panics
    ///
    /// Panics if the viewed corners do not form a valid rectangle — views
    /// are only ever taken over validated storage, so that is a bug.
    pub fn to_rect(&self) -> Rect {
        Rect::new(self.lo.to_vec(), self.hi.to_vec()).expect("RectRef views a valid rectangle")
    }

    /// The center of the rectangle.
    pub fn center(&self) -> Point {
        Point::new(
            self.lo
                .iter()
                .zip(self.hi.iter())
                .map(|(l, h)| (l + h) / 2.0)
                .collect(),
        )
    }

    /// The n-dimensional volume (area in 2-d).
    pub fn area(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| h - l)
            .product()
    }

    /// The volume of the intersection with `other`, 0 if disjoint.
    pub fn intersection_area(&self, other: RectRef<'_>) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        let mut v = 1.0;
        for d in 0..self.dim() {
            let lo = self.lo[d].max(other.lo[d]);
            let hi = self.hi[d].min(other.hi[d]);
            if lo >= hi {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// The increase in volume needed to enclose `other`: the volume of
    /// the enclosing MBR (taken corner by corner with `min`/`max`, as
    /// [`Rect::union`] does, but never built) less this one's.
    pub fn enlargement(&self, other: RectRef<'_>) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        let union: f64 = (0..self.dim())
            .map(|d| self.hi[d].max(other.hi[d]) - self.lo[d].min(other.lo[d]))
            .product();
        union - self.area()
    }

    /// Returns `true` if the point (given as a coordinate slice) lies
    /// inside the rectangle, boundary included.
    #[inline]
    pub fn contains_coords(&self, c: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), c.len());
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(c.iter())
            .all(|((l, h), c)| l <= c && c <= h)
    }

    /// Returns `true` if this rectangle intersects `other` (boundaries
    /// included).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(other.lo().iter().zip(other.hi().iter()))
            .all(|((sl, sh), (ol, oh))| sl <= oh && ol <= sh)
    }

    /// `D_min²` (MINDIST): squared distance from the point `q` (coordinate
    /// slice) to the closest point of the rectangle. Delegates to the
    /// shared [`crate::kernel`] so the scalar and batched paths cannot
    /// drift.
    #[inline]
    pub fn min_dist_sq(&self, q: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), q.len());
        crate::kernel::min_dist_sq(self.lo, self.hi, q)
    }

    /// `D_mm²` (MINMAXDIST): the squared distance within which at least
    /// one object of a *minimal* MBR is guaranteed to lie. Delegates to
    /// the shared [`crate::kernel`].
    pub fn min_max_dist_sq(&self, q: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), q.len());
        crate::kernel::min_max_dist_sq(self.lo, self.hi, q)
    }

    /// `D_max²`: squared distance from `q` to the farthest point of the
    /// rectangle (always a vertex). Delegates to the shared
    /// [`crate::kernel`].
    #[inline]
    pub fn max_dist_sq(&self, q: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), q.len());
        crate::kernel::max_dist_sq(self.lo, self.hi, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn view_matches_owned_metrics_bitwise() {
        let r = rect(&[1.0, 1.0, -2.5], &[4.0, 3.0, 0.5]);
        let v = r.as_ref();
        for coords in [
            vec![0.0, 0.0, 0.0],
            vec![2.0, 2.0, -1.0],
            vec![10.0, -3.0, 7.25],
            vec![1.0, 1.0, -2.5],
            vec![2.5, 0.0, 0.5],
        ] {
            let p = Point::new(coords.clone());
            assert_eq!(
                v.min_dist_sq(&coords).to_bits(),
                r.min_dist_sq(&p).to_bits()
            );
            assert_eq!(
                v.min_max_dist_sq(&coords).to_bits(),
                r.min_max_dist_sq(&p).to_bits()
            );
            assert_eq!(
                v.max_dist_sq(&coords).to_bits(),
                r.max_dist_sq(&p).to_bits()
            );
            assert_eq!(v.contains_coords(&coords), r.contains_point(&p));
        }
    }

    #[test]
    fn view_accessors_and_roundtrip() {
        let r = rect(&[0.0, 2.0], &[4.0, 6.0]);
        let v = r.as_ref();
        assert_eq!(v.dim(), 2);
        assert_eq!(v.lo(), r.lo());
        assert_eq!(v.hi(), r.hi());
        assert_eq!(v.center(), r.center());
        assert_eq!(v.to_rect(), r);
    }

    #[test]
    fn view_intersects_matches_owned() {
        let a = rect(&[0.0, 0.0], &[2.0, 2.0]);
        let b = rect(&[1.0, 1.0], &[3.0, 3.0]);
        let c = rect(&[5.0, 5.0], &[6.0, 6.0]);
        let d = rect(&[2.0, 0.0], &[4.0, 2.0]);
        for other in [&b, &c, &d] {
            assert_eq!(a.as_ref().intersects(other), a.intersects(other));
        }
    }

    #[test]
    fn minmax_two_pass_equals_buffered_reference() {
        // Reference implementation with explicit buffers (the original
        // formulation) — the two-pass version must agree bit for bit.
        let buffered = |r: &Rect, q: &[f64]| -> f64 {
            let n = r.dim();
            let mut near_sq = vec![0.0; n];
            let mut far_sq = vec![0.0; n];
            let mut total_far = 0.0;
            for d in 0..n {
                let c = q[d];
                let mid = (r.lo()[d] + r.hi()[d]) / 2.0;
                let rm = if c <= mid { r.lo()[d] } else { r.hi()[d] };
                let r_m = if c >= mid { r.lo()[d] } else { r.hi()[d] };
                near_sq[d] = (c - rm) * (c - rm);
                far_sq[d] = (c - r_m) * (c - r_m);
                total_far += far_sq[d];
            }
            let mut best = f64::INFINITY;
            for d in 0..n {
                let candidate = total_far - far_sq[d] + near_sq[d];
                if candidate < best {
                    best = candidate;
                }
            }
            best
        };
        let r = rect(&[0.25, -1.0, 3.0, 0.0], &[0.75, 2.0, 9.0, 0.125]);
        for q in [
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.5, 0.5, 6.0, 0.1],
            vec![-3.0, 7.0, 10.0, -0.5],
        ] {
            assert_eq!(
                r.as_ref().min_max_dist_sq(&q).to_bits(),
                buffered(&r, &q).to_bits()
            );
        }
    }
}

//! Minimum bounding rectangles and the three point-to-MBR distance metrics.

use crate::{GeomError, Point, RectRef, Result};

/// An n-dimensional axis-aligned minimum bounding rectangle (MBR).
///
/// Internal R\*-tree nodes approximate their subtrees by MBRs; leaf entries
/// store degenerate MBRs for point data. The three distance metrics defined
/// by the paper (Definitions 3–5) are implemented here in squared form:
///
/// * [`Rect::min_dist_sq`] (`D_min`, MINDIST) — the smallest possible
///   distance from the query point to any object inside the MBR. Optimistic
///   bound: no object in the subtree can be closer than this.
/// * [`Rect::min_max_dist_sq`] (`D_mm`, MINMAXDIST) — the smallest distance
///   within which an object is *guaranteed* to exist, assuming the MBR is
///   minimal (every face touches at least one object). Pessimistic bound.
/// * [`Rect::max_dist_sq`] (`D_max`) — the distance to the farthest point of
///   the MBR. If a sphere around the query point has radius ≥ `D_max`, the
///   whole MBR (and thus every object in the subtree) lies inside it; this
///   property underlies the threshold distance of Lemma 1.
///
/// For every point `p` and MBR `r`: `D_min ≤ D_mm ≤ D_max`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Rect {
    /// Creates an MBR from its low and high corners.
    ///
    /// Returns an error if the corners have mismatched dimensionality, if
    /// `lo[d] > hi[d]` for some dimension, or if either is empty.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        if lo.is_empty() {
            return Err(GeomError::ZeroDimensional);
        }
        if lo.len() != hi.len() {
            return Err(GeomError::DimensionMismatch {
                left: lo.len(),
                right: hi.len(),
            });
        }
        if lo.iter().chain(hi.iter()).any(|c| !c.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        for (dim, (l, h)) in lo.iter().zip(hi.iter()).enumerate() {
            if l > h {
                return Err(GeomError::InvertedCorners { dim });
            }
        }
        Ok(Self {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        })
    }

    /// Creates an MBR from corners already known to be valid (e.g. the
    /// union of existing MBRs, or coordinates decoded from a page that
    /// was validated at decode time). Skips the finiteness/ordering scan
    /// of [`Rect::new`]; only shape invariants are debug-checked.
    pub fn new_unchecked(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        debug_assert!(!lo.is_empty(), "rects must have at least 1 dimension");
        debug_assert_eq!(lo.len(), hi.len(), "corner dimension mismatch");
        Self {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        }
    }

    /// Creates a degenerate (zero-extent) MBR covering a single point.
    pub fn from_point(p: &Point) -> Self {
        Self {
            lo: p.coords().to_vec().into_boxed_slice(),
            hi: p.coords().to_vec().into_boxed_slice(),
        }
    }

    /// Creates the bounding box of the sphere `center ± radius`, building
    /// both corners in one pass directly into their final storage.
    ///
    /// Returns an error if a bound is non-finite (overflowing radius) or
    /// if `radius` is negative (inverted corners).
    pub fn around(center: &Point, radius: f64) -> Result<Self> {
        let n = center.dim();
        let mut lo = Vec::with_capacity(n);
        let mut hi = Vec::with_capacity(n);
        for (dim, c) in center.coords().iter().enumerate() {
            let l = c - radius;
            let h = c + radius;
            if !l.is_finite() || !h.is_finite() {
                return Err(GeomError::NonFiniteCoordinate);
            }
            if l > h {
                return Err(GeomError::InvertedCorners { dim });
            }
            lo.push(l);
            hi.push(h);
        }
        Ok(Self {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        })
    }

    /// A borrowed view of this rectangle; the metric implementations live
    /// on [`RectRef`] and `Rect` delegates, so owned and viewed corners
    /// give bit-identical distances.
    #[inline]
    pub fn as_ref(&self) -> RectRef<'_> {
        RectRef::new(&self.lo, &self.hi)
    }

    /// The dimensionality of the MBR.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Low corner coordinates.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// High corner coordinates.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// The center of the MBR.
    pub fn center(&self) -> Point {
        Point::new(
            self.lo
                .iter()
                .zip(self.hi.iter())
                .map(|(l, h)| (l + h) / 2.0)
                .collect(),
        )
    }

    /// The extent (side length) along dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> f64 {
        self.hi[d] - self.lo[d]
    }

    /// The n-dimensional volume (area in 2-d).
    pub fn area(&self) -> f64 {
        self.as_ref().area()
    }

    /// The margin: the sum of the side lengths over all dimensions.
    ///
    /// The R\*-tree split algorithm selects the split axis by minimizing the
    /// margin sum of candidate distributions.
    pub fn margin(&self) -> f64 {
        self.as_ref().margin()
    }

    /// Returns `true` if `self` and `other` intersect (share at least one
    /// point, boundaries included).
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(other.lo.iter().zip(other.hi.iter()))
            .all(|((sl, sh), (ol, oh))| sl <= oh && ol <= sh)
    }

    /// Returns `true` if `self` fully contains `other`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(other.lo.iter().zip(other.hi.iter()))
            .all(|((sl, sh), (ol, oh))| sl <= ol && oh <= sh)
    }

    /// Returns `true` if the point lies inside the MBR (boundary included).
    pub fn contains_point(&self, p: &Point) -> bool {
        debug_assert_eq!(self.dim(), p.dim());
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(p.coords().iter())
            .all(|((l, h), c)| l <= c && c <= h)
    }

    /// [`Rect::contains_point`] over a raw coordinate slice (an entry of
    /// a flat-layout tree node).
    #[inline]
    pub fn contains_coords(&self, c: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), c.len());
        self.as_ref().contains_coords(c)
    }

    /// The volume of the intersection with `other`, 0 if disjoint.
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        self.as_ref().intersection_area(other.as_ref())
    }

    /// The smallest MBR enclosing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dim(), other.dim());
        Rect {
            lo: self
                .lo
                .iter()
                .zip(other.lo.iter())
                .map(|(a, b)| a.min(*b))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(other.hi.iter())
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    /// Grows `self` in place to enclose `other`.
    pub fn union_in_place(&mut self, other: &Rect) {
        debug_assert_eq!(self.dim(), other.dim());
        for d in 0..self.lo.len() {
            if other.lo[d] < self.lo[d] {
                self.lo[d] = other.lo[d];
            }
            if other.hi[d] > self.hi[d] {
                self.hi[d] = other.hi[d];
            }
        }
    }

    /// The increase in volume needed to enclose `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.as_ref().enlargement(other.as_ref())
    }

    /// Builds the smallest MBR enclosing all `rects`.
    ///
    /// Returns `None` if `rects` is empty.
    pub fn union_all<'a, I>(rects: I) -> Option<Rect>
    where
        I: IntoIterator<Item = &'a Rect>,
    {
        let mut it = rects.into_iter();
        let first = it.next()?.clone();
        Some(it.fold(first, |mut acc, r| {
            acc.union_in_place(r);
            acc
        }))
    }

    /// `D_min²` (MINDIST, Definition 3): squared distance from `p` to the
    /// closest point of the MBR. Zero if `p` lies inside the MBR.
    #[inline]
    pub fn min_dist_sq(&self, p: &Point) -> f64 {
        debug_assert_eq!(self.dim(), p.dim());
        self.as_ref().min_dist_sq(p.coords())
    }

    /// `D_mm²` (MINMAXDIST, Definition 4): the squared distance within which
    /// at least one object of a *minimal* MBR is guaranteed to lie.
    ///
    /// For each dimension `k`, consider the nearer face of the MBR along `k`
    /// and the farther face along every other dimension; the metric is the
    /// minimum over `k` of the distance to that face-corner combination.
    pub fn min_max_dist_sq(&self, p: &Point) -> f64 {
        debug_assert_eq!(self.dim(), p.dim());
        self.as_ref().min_max_dist_sq(p.coords())
    }

    /// `D_max²` (Definition 5): squared distance from `p` to the farthest
    /// point of the MBR (always a vertex).
    #[inline]
    pub fn max_dist_sq(&self, p: &Point) -> f64 {
        debug_assert_eq!(self.dim(), p.dim());
        self.as_ref().max_dist_sq(p.coords())
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for d in 0..self.dim() {
            if d > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{}..{}", self.lo[d], self.hi[d])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Rect::new(vec![0.0], vec![1.0]).is_ok());
        assert_eq!(
            Rect::new(vec![2.0], vec![1.0]),
            Err(GeomError::InvertedCorners { dim: 0 })
        );
        assert_eq!(
            Rect::new(vec![0.0], vec![1.0, 2.0]),
            Err(GeomError::DimensionMismatch { left: 1, right: 2 })
        );
        assert_eq!(Rect::new(vec![], vec![]), Err(GeomError::ZeroDimensional));
        assert_eq!(
            Rect::new(vec![f64::NAN], vec![1.0]),
            Err(GeomError::NonFiniteCoordinate)
        );
    }

    #[test]
    fn around_builds_sphere_bounds() {
        let c = Point::new(vec![1.0, -2.0, 0.5]);
        let r = Rect::around(&c, 1.5).unwrap();
        assert_eq!(r.lo(), &[-0.5, -3.5, -1.0]);
        assert_eq!(r.hi(), &[2.5, -0.5, 2.0]);
        // Zero radius degenerates to the center point.
        let z = Rect::around(&c, 0.0).unwrap();
        assert_eq!(z, Rect::from_point(&c));
    }

    #[test]
    fn around_rejects_bad_radius() {
        let c = Point::new(vec![0.0, 0.0]);
        assert_eq!(
            Rect::around(&c, -1.0),
            Err(GeomError::InvertedCorners { dim: 0 })
        );
        assert_eq!(
            Rect::around(&c, f64::INFINITY),
            Err(GeomError::NonFiniteCoordinate)
        );
        assert_eq!(
            Rect::around(&c, f64::NAN),
            Err(GeomError::NonFiniteCoordinate)
        );
    }

    #[test]
    fn degenerate_rect_is_valid() {
        let r = rect(&[1.0, 2.0], &[1.0, 2.0]);
        assert_eq!(r.area(), 0.0);
        assert_eq!(r.margin(), 0.0);
        assert!(r.contains_point(&Point::new(vec![1.0, 2.0])));
    }

    #[test]
    fn area_and_margin() {
        let r = rect(&[0.0, 0.0, 0.0], &[2.0, 3.0, 4.0]);
        assert_eq!(r.area(), 24.0);
        assert_eq!(r.margin(), 9.0);
        assert_eq!(r.extent(1), 3.0);
    }

    #[test]
    fn intersection_tests() {
        let a = rect(&[0.0, 0.0], &[2.0, 2.0]);
        let b = rect(&[1.0, 1.0], &[3.0, 3.0]);
        let c = rect(&[5.0, 5.0], &[6.0, 6.0]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching boundaries intersect.
        let d = rect(&[2.0, 0.0], &[4.0, 2.0]);
        assert!(a.intersects(&d));
        assert_eq!(a.intersection_area(&b), 1.0);
        assert_eq!(a.intersection_area(&c), 0.0);
        assert_eq!(a.intersection_area(&d), 0.0); // touching has zero area
    }

    #[test]
    fn containment() {
        let outer = rect(&[0.0, 0.0], &[10.0, 10.0]);
        let inner = rect(&[2.0, 2.0], &[3.0, 3.0]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
        assert!(outer.contains_point(&Point::new(vec![0.0, 10.0])));
        assert!(!outer.contains_point(&Point::new(vec![-0.1, 5.0])));
    }

    #[test]
    fn union_and_enlargement() {
        let a = rect(&[0.0, 0.0], &[1.0, 1.0]);
        let b = rect(&[2.0, 2.0], &[3.0, 3.0]);
        let u = a.union(&b);
        assert_eq!(u.lo(), &[0.0, 0.0]);
        assert_eq!(u.hi(), &[3.0, 3.0]);
        assert_eq!(a.enlargement(&b), 9.0 - 1.0);
        let mut c = a.clone();
        c.union_in_place(&b);
        assert_eq!(c, u);
    }

    #[test]
    fn union_all_of_rects() {
        let rs = [
            rect(&[0.0], &[1.0]),
            rect(&[-5.0], &[-4.0]),
            rect(&[3.0], &[7.0]),
        ];
        let u = Rect::union_all(rs.iter()).unwrap();
        assert_eq!(u.lo(), &[-5.0]);
        assert_eq!(u.hi(), &[7.0]);
        assert!(Rect::union_all(std::iter::empty()).is_none());
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let r = rect(&[0.0, 0.0], &[4.0, 4.0]);
        assert_eq!(r.min_dist_sq(&Point::new(vec![2.0, 2.0])), 0.0);
        assert_eq!(r.min_dist_sq(&Point::new(vec![0.0, 0.0])), 0.0);
    }

    #[test]
    fn min_dist_outside() {
        let r = rect(&[1.0, 1.0], &[3.0, 2.0]);
        let p = Point::new(vec![0.0, 0.0]);
        assert_eq!(r.min_dist_sq(&p), 2.0); // to corner (1,1)
        let q = Point::new(vec![2.0, 5.0]);
        assert_eq!(r.min_dist_sq(&q), 9.0); // to face y=2
    }

    #[test]
    fn max_dist_farthest_vertex() {
        let r = rect(&[1.0, 1.0], &[3.0, 2.0]);
        let p = Point::new(vec![0.0, 0.0]);
        assert_eq!(r.max_dist_sq(&p), 9.0 + 4.0); // corner (3,2)
                                                  // Point at center: farthest vertex is any corner.
        let c = Point::new(vec![2.0, 1.5]);
        assert_eq!(r.max_dist_sq(&c), 1.0 + 0.25);
    }

    #[test]
    fn min_max_dist_matches_hand_computation() {
        // Unit square [0,1]^2, query at origin.
        // Along dim 0: nearer face x=0 (dist 0), farther face y=1 (dist 1)
        //   => 0 + 1 = 1.
        // Along dim 1 symmetric => 1. MINMAXDIST² = 1.
        let r = rect(&[0.0, 0.0], &[1.0, 1.0]);
        let p = Point::new(vec![0.0, 0.0]);
        assert_eq!(r.min_max_dist_sq(&p), 1.0);
    }

    #[test]
    fn min_max_dist_query_inside() {
        // Query at the exact center of the unit square: nearer face along
        // the chosen axis is at distance 0.5 (midpoint tie -> lo), farther
        // faces along others at 0.5. MINMAXDIST² = 0.25 + 0.25 = 0.5.
        let r = rect(&[0.0, 0.0], &[1.0, 1.0]);
        let p = Point::new(vec![0.5, 0.5]);
        assert!((r.min_max_dist_sq(&p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metric_ordering_on_fixture() {
        let r = rect(&[1.0, 1.0], &[4.0, 3.0]);
        for coords in [
            vec![0.0, 0.0],
            vec![2.0, 2.0],
            vec![10.0, -3.0],
            vec![1.0, 1.0],
            vec![2.5, 0.0],
        ] {
            let p = Point::new(coords);
            let dmin = r.min_dist_sq(&p);
            let dmm = r.min_max_dist_sq(&p);
            let dmax = r.max_dist_sq(&p);
            assert!(dmin <= dmm + 1e-12, "Dmin {dmin} > Dmm {dmm}");
            assert!(dmm <= dmax + 1e-12, "Dmm {dmm} > Dmax {dmax}");
        }
    }

    #[test]
    fn center_is_midpoint() {
        let r = rect(&[0.0, 2.0], &[4.0, 6.0]);
        assert_eq!(r.center(), Point::new(vec![2.0, 4.0]));
    }

    #[test]
    fn from_point_roundtrip() {
        let p = Point::new(vec![3.0, -1.0]);
        let r = Rect::from_point(&p);
        assert_eq!(r.lo(), p.coords());
        assert_eq!(r.hi(), p.coords());
        assert_eq!(r.min_dist_sq(&p), 0.0);
        assert_eq!(r.max_dist_sq(&p), 0.0);
    }

    #[test]
    fn display_formats() {
        let r = rect(&[0.0, 1.0], &[2.0, 3.0]);
        assert_eq!(r.to_string(), "[0..2 x 1..3]");
    }
}

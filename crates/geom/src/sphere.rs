//! Query hyper-spheres.

use crate::{Point, Rect, RectRef};

/// A hyper-sphere, stored as a center point plus a **squared** radius.
///
/// The similarity-search algorithms reason about the *query sphere*: the
/// sphere centered at the query point whose radius is the current upper
/// bound on the distance to the k-th nearest neighbour. An MBR can be
/// pruned exactly when it does not intersect the query sphere, i.e. when
/// `D_min²(P_q, R) > radius²`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sphere {
    center: Point,
    radius_sq: f64,
}

impl Sphere {
    /// Creates a sphere from its center and (non-squared) radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(radius >= 0.0, "sphere radius must be non-negative");
        Self {
            center,
            radius_sq: radius * radius,
        }
    }

    /// The center of the sphere.
    #[inline]
    pub fn center(&self) -> &Point {
        &self.center
    }

    /// The squared radius.
    #[inline]
    pub fn radius_sq(&self) -> f64 {
        self.radius_sq
    }

    /// The radius.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius_sq.sqrt()
    }

    /// Returns `true` if the point lies inside or on the sphere.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.center.dist_sq(p) <= self.radius_sq
    }

    /// Returns `true` if the MBR intersects the sphere
    /// (`D_min² ≤ radius²`).
    #[inline]
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        r.min_dist_sq(&self.center) <= self.radius_sq
    }

    /// Returns `true` if the MBR is fully enclosed by the sphere
    /// (`D_max² ≤ radius²`).
    #[inline]
    pub fn contains_rect(&self, r: &Rect) -> bool {
        r.max_dist_sq(&self.center) <= self.radius_sq
    }

    /// [`Sphere::contains_point`] over a raw coordinate slice (an entry of
    /// a flat-layout tree node).
    #[inline]
    pub fn contains_coords(&self, c: &[f64]) -> bool {
        self.center.dist_sq_coords(c) <= self.radius_sq
    }

    /// [`Sphere::intersects_rect`] over a borrowed MBR view.
    #[inline]
    pub fn intersects_rect_ref(&self, r: &RectRef<'_>) -> bool {
        r.min_dist_sq(self.center.coords()) <= self.radius_sq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn radius_roundtrip() {
        let s = Sphere::new(Point::new(vec![0.0, 0.0]), 3.0);
        assert_eq!(s.radius_sq(), 9.0);
        assert_eq!(s.radius(), 3.0);
    }

    #[test]
    fn contains_point_boundary() {
        let s = Sphere::new(Point::new(vec![0.0, 0.0]), 5.0);
        assert!(s.contains_point(&Point::new(vec![3.0, 4.0]))); // on boundary
        assert!(s.contains_point(&Point::new(vec![0.0, 0.0])));
        assert!(!s.contains_point(&Point::new(vec![3.1, 4.0])));
    }

    #[test]
    fn rect_intersection() {
        let s = Sphere::new(Point::new(vec![0.0, 0.0]), 1.0);
        assert!(s.intersects_rect(&rect(&[0.5, 0.5], &[2.0, 2.0])));
        assert!(!s.intersects_rect(&rect(&[1.0, 1.0], &[2.0, 2.0]))); // corner dist sqrt2 > 1
        assert!(s.intersects_rect(&rect(&[-0.1, -0.1], &[0.1, 0.1])));
    }

    #[test]
    fn rect_containment() {
        let s = Sphere::new(Point::new(vec![0.0, 0.0]), 2.0);
        assert!(s.contains_rect(&rect(&[-1.0, -1.0], &[1.0, 1.0]))); // corner dist sqrt2 < 2
        assert!(!s.contains_rect(&rect(&[0.0, 0.0], &[2.0, 2.0]))); // corner dist 2*sqrt2 > 2
    }

    #[test]
    fn slice_variants_match_owned() {
        let s = Sphere::new(Point::new(vec![0.0, 0.0]), 1.0);
        for (lo, hi) in [
            ([0.5, 0.5], [2.0, 2.0]),
            ([1.0, 1.0], [2.0, 2.0]),
            ([-0.1, -0.1], [0.1, 0.1]),
        ] {
            let r = rect(&lo, &hi);
            assert_eq!(s.intersects_rect_ref(&r.as_ref()), s.intersects_rect(&r));
        }
        for p in [[3.0, 4.0], [0.0, 0.0], [3.1, 4.0]] {
            assert_eq!(
                s.contains_coords(&p),
                s.contains_point(&Point::new(p.to_vec()))
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_radius_panics() {
        let _ = Sphere::new(Point::new(vec![0.0]), -1.0);
    }
}

//! Bounding regions: the geometry access methods bound their subtrees
//! with.
//!
//! The R-tree family uses rectangles; the SS-tree uses spheres. The
//! similarity-search algorithms only need the three distance metrics, so
//! [`Region`] exposes exactly those and the algorithms run unchanged over
//! either access method.

use crate::{Point, Rect};

/// A bounding region: an axis-aligned rectangle or a sphere.
#[derive(Debug, Clone, PartialEq)]
pub enum Region {
    /// An axis-aligned minimum bounding rectangle.
    Rect(Rect),
    /// A bounding sphere (center + radius), as used by the SS-tree.
    Sphere {
        /// Sphere center.
        center: Point,
        /// Sphere radius (≥ 0).
        radius: f64,
    },
}

impl Region {
    /// Creates a sphere region.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative.
    pub fn sphere(center: Point, radius: f64) -> Self {
        assert!(radius >= 0.0, "radius must be non-negative");
        Region::Sphere { center, radius }
    }

    /// The region's dimensionality.
    pub fn dim(&self) -> usize {
        match self {
            Region::Rect(r) => r.dim(),
            Region::Sphere { center, .. } => center.dim(),
        }
    }

    /// `D_min²`: squared distance from `p` to the nearest point of the
    /// region (0 inside).
    pub fn min_dist_sq(&self, p: &Point) -> f64 {
        match self {
            Region::Rect(r) => r.min_dist_sq(p),
            Region::Sphere { center, radius } => {
                crate::kernel::sphere_min_dist_sq(center.coords(), *radius, p.coords())
            }
        }
    }

    /// `D_mm²`: the squared distance within which an object is
    /// *guaranteed* to lie.
    ///
    /// For a minimal MBR every face touches an object (MINMAXDIST); a
    /// bounding sphere gives no such per-face guarantee — an object could
    /// sit anywhere on the far surface — so the sphere's pessimistic
    /// bound is its `D_max`. CRSS remains correct over spheres, just
    /// with a weaker activation signal.
    pub fn min_max_dist_sq(&self, p: &Point) -> f64 {
        match self {
            Region::Rect(r) => r.min_max_dist_sq(p),
            Region::Sphere { .. } => self.max_dist_sq(p),
        }
    }

    /// `D_max²`: squared distance from `p` to the farthest point of the
    /// region.
    pub fn max_dist_sq(&self, p: &Point) -> f64 {
        match self {
            Region::Rect(r) => r.max_dist_sq(p),
            Region::Sphere { center, radius } => {
                crate::kernel::sphere_max_dist_sq(center.coords(), *radius, p.coords())
            }
        }
    }
}

impl From<Rect> for Region {
    fn from(r: Rect) -> Self {
        Region::Rect(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(center: &[f64], radius: f64) -> Region {
        Region::sphere(Point::new(center.to_vec()), radius)
    }

    #[test]
    fn sphere_distances() {
        let s = sphere(&[0.0, 0.0], 1.0);
        let p = Point::new(vec![3.0, 0.0]);
        assert_eq!(s.min_dist_sq(&p), 4.0); // 3 - 1 = 2
        assert_eq!(s.max_dist_sq(&p), 16.0); // 3 + 1 = 4
        assert_eq!(s.min_max_dist_sq(&p), 16.0); // = Dmax for spheres
                                                 // Inside the sphere.
        let q = Point::new(vec![0.5, 0.0]);
        assert_eq!(s.min_dist_sq(&q), 0.0);
        assert_eq!(s.max_dist_sq(&q), 2.25); // 0.5 + 1 = 1.5
    }

    #[test]
    fn rect_region_delegates() {
        let r = Rect::new(vec![1.0, 1.0], vec![3.0, 2.0]).unwrap();
        let region = Region::from(r.clone());
        let p = Point::new(vec![0.0, 0.0]);
        assert_eq!(region.min_dist_sq(&p), r.min_dist_sq(&p));
        assert_eq!(region.min_max_dist_sq(&p), r.min_max_dist_sq(&p));
        assert_eq!(region.max_dist_sq(&p), r.max_dist_sq(&p));
        assert_eq!(region.dim(), 2);
    }

    #[test]
    fn metric_ordering_for_spheres() {
        let s = sphere(&[2.0, -1.0, 4.0], 2.5);
        for coords in [[0.0, 0.0, 0.0], [2.0, -1.0, 4.0], [10.0, 10.0, -10.0]] {
            let p = Point::new(coords.to_vec());
            assert!(s.min_dist_sq(&p) <= s.min_max_dist_sq(&p));
            assert!(s.min_max_dist_sq(&p) <= s.max_dist_sq(&p));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_radius_rejected() {
        let _ = Region::sphere(Point::new(vec![0.0]), -1.0);
    }
}

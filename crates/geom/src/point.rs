//! n-dimensional points with Euclidean distance.

use crate::{GeomError, Result};

/// An n-dimensional point with `f64` coordinates.
///
/// Points are the unit of data in the similarity-search system: data objects
/// are feature vectors (colour histograms, Fourier coefficients, map
/// coordinates) stored in the leaves of the R\*-tree, and queries are posed
/// as a query point plus a neighbour count `k`.
///
/// Coordinates are stored in a boxed slice: a `Point` is two words plus the
/// coordinate payload, and its dimensionality is immutable after creation.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point from a coordinate vector.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty. Use [`Point::try_new`] for a fallible
    /// variant that also validates finiteness.
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(!coords.is_empty(), "points must have at least 1 dimension");
        Self {
            coords: coords.into_boxed_slice(),
        }
    }

    /// Creates a point, validating that it is non-empty and every coordinate
    /// is finite.
    pub fn try_new(coords: Vec<f64>) -> Result<Self> {
        if coords.is_empty() {
            return Err(GeomError::ZeroDimensional);
        }
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        Ok(Self::new(coords))
    }

    /// The dimensionality of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The coordinate slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The coordinate along dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dim()`.
    #[inline]
    pub fn coord(&self, d: usize) -> f64 {
        self.coords[d]
    }

    /// Squared Euclidean distance to another point.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the dimensionalities differ.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        debug_assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        crate::kernel::dist_sq(&self.coords, &other.coords)
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to a point given as a coordinate slice
    /// (e.g. an entry of a flat-layout tree node). Same arithmetic — and
    /// therefore bit-identical results — as [`Point::dist_sq`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the dimensionalities differ.
    #[inline]
    pub fn dist_sq_coords(&self, other: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), other.len(), "dimension mismatch");
        crate::kernel::dist_sq(&self.coords, other)
    }

    /// Returns a point with every coordinate equal to `value`.
    pub fn splat(dim: usize, value: f64) -> Self {
        assert!(dim > 0, "points must have at least 1 dimension");
        Self {
            coords: vec![value; dim].into_boxed_slice(),
        }
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Point::new(coords.to_vec())
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
        assert_eq!(p.coord(1), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least 1 dimension")]
    fn empty_point_panics() {
        let _ = Point::new(vec![]);
    }

    #[test]
    fn try_new_rejects_nan() {
        assert_eq!(
            Point::try_new(vec![1.0, f64::NAN]),
            Err(GeomError::NonFiniteCoordinate)
        );
        assert_eq!(
            Point::try_new(vec![f64::INFINITY]),
            Err(GeomError::NonFiniteCoordinate)
        );
        assert_eq!(Point::try_new(vec![]), Err(GeomError::ZeroDimensional));
        assert!(Point::try_new(vec![0.0]).is_ok());
    }

    #[test]
    fn euclidean_distance() {
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![3.0, 4.0]);
        assert_eq!(a.dist_sq(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn dist_sq_coords_matches_point_distance() {
        let a = Point::new(vec![1.5, -2.0, 7.0]);
        let b = Point::new(vec![-4.0, 0.5, 3.25]);
        assert_eq!(
            a.dist_sq_coords(b.coords()).to_bits(),
            a.dist_sq(&b).to_bits()
        );
        assert_eq!(a.dist_sq_coords(a.coords()), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(vec![1.5, -2.0, 7.0]);
        let b = Point::new(vec![-4.0, 0.5, 3.25]);
        assert_eq!(a.dist_sq(&b), b.dist_sq(&a));
    }

    #[test]
    fn splat_fills_coordinates() {
        let p = Point::splat(4, 2.5);
        assert_eq!(p.coords(), &[2.5, 2.5, 2.5, 2.5]);
    }

    #[test]
    fn display_formats_coordinates() {
        let p = Point::new(vec![1.0, 2.5]);
        assert_eq!(p.to_string(), "(1, 2.5)");
    }

    #[test]
    fn from_slice_and_vec() {
        let v = vec![1.0, 2.0];
        let p1: Point = v.clone().into();
        let p2: Point = v.as_slice().into();
        assert_eq!(p1, p2);
    }
}

//! n-dimensional geometry primitives for similarity query processing.
//!
//! This crate implements the geometric foundation of the SIGMOD'98 paper
//! *"Similarity Query Processing Using Disk Arrays"* (Papadopoulos &
//! Manolopoulos): points, minimum bounding rectangles (MBRs) and the three
//! point-to-rectangle distance metrics the paper's algorithms are built on:
//!
//! * [`Rect::min_dist_sq`] — `D_min`, the optimistic MINDIST metric,
//! * [`Rect::min_max_dist_sq`] — `D_mm`, the pessimistic MINMAXDIST metric,
//! * [`Rect::max_dist_sq`] — `D_max`, the distance to the farthest point of
//!   the rectangle (used by Lemma 1 to derive the threshold distance).
//!
//! All distances are computed and compared in **squared** form; square roots
//! are taken only at presentation boundaries. Squared distances preserve
//! ordering for non-negative values and avoid `sqrt` in hot loops.
//!
//! # Example
//!
//! ```
//! use sqda_geom::{Point, Rect};
//!
//! let p = Point::new(vec![0.0, 0.0]);
//! let r = Rect::new(vec![1.0, 1.0], vec![3.0, 2.0]).unwrap();
//! assert_eq!(r.min_dist_sq(&p), 2.0);   // closest corner (1,1)
//! assert_eq!(r.max_dist_sq(&p), 13.0);  // farthest corner (3,2)
//! assert!(r.min_max_dist_sq(&p) >= r.min_dist_sq(&p));
//! ```

#![forbid(unsafe_code)]

pub mod kernel;
mod point;
pub mod prop;
mod rect;
mod rectref;
mod region;
pub mod rng;
mod sphere;

pub use point::Point;
pub use rect::Rect;
pub use rectref::RectRef;
pub use region::Region;
pub use sphere::Sphere;

/// Errors produced by geometry constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// The low corner exceeds the high corner in some dimension.
    InvertedCorners {
        /// The offending dimension index.
        dim: usize,
    },
    /// Two operands have different dimensionality.
    DimensionMismatch {
        /// Dimensionality of the left operand.
        left: usize,
        /// Dimensionality of the right operand.
        right: usize,
    },
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate,
    /// Zero-dimensional geometry is not meaningful.
    ZeroDimensional,
}

impl std::fmt::Display for GeomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeomError::InvertedCorners { dim } => {
                write!(f, "low corner exceeds high corner in dimension {dim}")
            }
            GeomError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            GeomError::NonFiniteCoordinate => write!(f, "coordinate is NaN or infinite"),
            GeomError::ZeroDimensional => write!(f, "zero-dimensional geometry"),
        }
    }
}

impl std::error::Error for GeomError {}

/// Convenience alias for geometry results.
pub type Result<T> = std::result::Result<T, GeomError>;

//! The `Dataset` container and CSV round-tripping.

use crate::csv::CsvRows;
use sqda_geom::Point;
use std::io::{BufWriter, Write};
use std::path::Path;

/// A named collection of points with uniform dimensionality.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Human-readable name (appears in experiment output).
    pub name: String,
    /// Dimensionality of every point.
    pub dim: usize,
    /// The data points.
    pub points: Vec<Point>,
}

impl Dataset {
    /// Creates a dataset, validating dimensional consistency.
    ///
    /// # Panics
    ///
    /// Panics if any point has a different dimensionality than `dim`.
    pub fn new(name: impl Into<String>, dim: usize, points: Vec<Point>) -> Self {
        let name = name.into();
        for (i, p) in points.iter().enumerate() {
            assert_eq!(
                p.dim(),
                dim,
                "point {i} of dataset {name} has dimension {} (expected {dim})",
                p.dim()
            );
        }
        Self { name, dim, points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Draws `n` query points from the data distribution: uniformly
    /// sampled data points, each perturbed by a small jitter so queries
    /// rarely coincide exactly with an indexed object.
    pub fn sample_queries(&self, n: usize, seed: u64) -> Vec<Point> {
        crate::queries::sample_queries(self, n, seed)
    }

    /// The bounding box of the data, as (lo, hi) coordinate vectors.
    /// Returns `None` for an empty dataset.
    pub fn bounds(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        let first = self.points.first()?;
        let mut lo = first.coords().to_vec();
        let mut hi = lo.clone();
        for p in &self.points[1..] {
            for (d, &c) in p.coords().iter().enumerate() {
                if c < lo[d] {
                    lo[d] = c;
                }
                if c > hi[d] {
                    hi[d] = c;
                }
            }
        }
        Some((lo, hi))
    }

    /// Writes the points as CSV (one point per line, comma-separated
    /// coordinates).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(file);
        for p in &self.points {
            let mut sep = "";
            for c in p.coords() {
                write!(w, "{sep}{c}")?;
                sep = ",";
            }
            writeln!(w)?;
        }
        w.flush()
    }

    /// Reads points from CSV written by [`Dataset::write_csv`].
    pub fn read_csv(name: impl Into<String>, path: &Path) -> std::io::Result<Self> {
        let mut rows = CsvRows::open(path)?;
        let mut points = Vec::new();
        while let Some(coords) = rows.next_row()? {
            points.push(Point::new(coords.to_vec()));
        }
        let dim = points.first().map_or(1, Point::dim);
        Ok(Self::new(name, dim, points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::new(
            "sample",
            2,
            vec![
                Point::new(vec![0.0, 1.0]),
                Point::new(vec![2.5, -3.0]),
                Point::new(vec![-1.0, 4.0]),
            ],
        )
    }

    #[test]
    fn bounds_cover_all_points() {
        let (lo, hi) = sample().bounds().unwrap();
        assert_eq!(lo, vec![-1.0, -3.0]);
        assert_eq!(hi, vec![2.5, 4.0]);
    }

    #[test]
    fn empty_dataset_bounds() {
        let d = Dataset::new("empty", 2, vec![]);
        assert!(d.bounds().is_none());
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn mixed_dimension_panics() {
        Dataset::new(
            "bad",
            2,
            vec![Point::new(vec![0.0, 1.0]), Point::new(vec![1.0])],
        );
    }

    #[test]
    fn csv_roundtrip() {
        let d = sample();
        let dir = std::env::temp_dir().join("sqda-datasets-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        d.write_csv(&path).unwrap();
        let back = Dataset::read_csv("sample", &path).unwrap();
        assert_eq!(d, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_garbage() {
        let dir = std::env::temp_dir().join("sqda-datasets-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.csv");
        std::fs::write(&path, "1.0,2.0\nnot,a,number\n").unwrap();
        let err = Dataset::read_csv("bad", &path).unwrap_err().to_string();
        assert!(
            err.ends_with("garbage.csv:2: \"not\" is not a number"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_text_is_one_display_formatted_row_per_line() {
        let dir = std::env::temp_dir().join("sqda-datasets-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("text.csv");
        let d = Dataset::new(
            "text",
            3,
            vec![
                Point::new(vec![0.1, -2.5e-7, 1e21]),
                Point::new(vec![3.0, f64::MIN_POSITIVE, -0.0]),
            ],
        );
        d.write_csv(&path).unwrap();
        let want: String = d
            .points
            .iter()
            .map(|p| {
                let fields: Vec<String> = p.coords().iter().map(|c| c.to_string()).collect();
                fields.join(",") + "\n"
            })
            .collect();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        assert_eq!(Dataset::read_csv("text", &path).unwrap(), d);
        std::fs::remove_file(&path).ok();
    }
}

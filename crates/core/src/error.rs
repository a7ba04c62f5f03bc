//! The typed error of the query-engine boundary.
//!
//! Everything that crosses the [`crate::AccessMethod`] / executor seam —
//! the four algorithms, the logical executor and the event-driven
//! simulator — fails with [`QueryError`], replacing the former
//! `Box<dyn Error>` alias. Both access methods are `sqda-rstar`'s paged
//! trees and fail with its one error type, converted here via `From`, so
//! `?` works across the boundary without boxing.

use sqda_rstar::RStarError;
use sqda_storage::{PageId, StorageError};

/// Why a similarity query could not be answered.
#[derive(Debug, Clone)]
pub enum QueryError {
    /// The underlying page store failed (missing page, bad disk, ...).
    Storage(StorageError),
    /// A page was fetched but its bytes do not decode into a node.
    Codec {
        /// What the decoder rejected.
        detail: String,
    },
    /// An access-method invariant was violated (wrong dimensionality,
    /// malformed geometry, ...).
    Invariant(String),
    /// The caller's configuration is inconsistent with the data it is
    /// applied to (e.g. a simulation sized for a different disk array).
    Config(String),
    /// A required page had no live replica within the retry budget: its
    /// disk is failed and either the array is not mirrored or the disk
    /// is the unpaired one of an odd array. The query degrades to a
    /// typed error instead of hanging (see the fault-injection layer).
    Unavailable {
        /// The page that could not be read.
        page: PageId,
        /// The primary disk the page lives on.
        disk: u32,
        /// Probes spent before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
            QueryError::Codec { detail } => write!(f, "codec error: {detail}"),
            QueryError::Invariant(msg) => write!(f, "invariant violated: {msg}"),
            QueryError::Config(msg) => write!(f, "configuration error: {msg}"),
            QueryError::Unavailable {
                page,
                disk,
                attempts,
            } => write!(
                f,
                "page {page:?} unavailable: disk {disk} failed and no live \
                 replica answered within {attempts} probes"
            ),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        match e {
            // Undecodable pages are a codec failure, not an I/O failure.
            StorageError::CorruptPage { .. } => QueryError::Codec {
                detail: e.to_string(),
            },
            other => QueryError::Storage(other),
        }
    }
}

impl From<RStarError> for QueryError {
    fn from(e: RStarError) -> Self {
        match e {
            RStarError::Storage(e) => QueryError::from(e),
            RStarError::Geometry(_)
            | RStarError::DimensionMismatch { .. }
            | RStarError::UnsupportedPacking { .. }
            | RStarError::InvalidBuild(_)
            | RStarError::Source(_) => QueryError::Invariant(e.to_string()),
            RStarError::NodeDoesNotFit { .. } | RStarError::PageSizeMismatch { .. } => {
                QueryError::Config(e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqda_storage::PageId;

    #[test]
    fn storage_errors_split_into_codec_and_storage() {
        let corrupt = StorageError::CorruptPage {
            page: PageId::from_raw(3),
            detail: "truncated header".into(),
        };
        assert!(matches!(
            QueryError::from(corrupt),
            QueryError::Codec { .. }
        ));
        let missing = StorageError::PageNotFound(PageId::from_raw(3));
        assert!(matches!(
            QueryError::from(missing),
            QueryError::Storage(StorageError::PageNotFound(_))
        ));
    }

    #[test]
    fn rstar_errors_map_by_kind() {
        let dim = RStarError::DimensionMismatch {
            expected: 2,
            got: 3,
        };
        assert!(matches!(QueryError::from(dim), QueryError::Invariant(_)));
        let io = RStarError::Storage(StorageError::UninitializedPage(PageId::from_raw(7)));
        assert!(matches!(QueryError::from(io), QueryError::Storage(_)));
    }

    #[test]
    fn display_is_informative() {
        let e = QueryError::Config("simulation has 10 disks, array has 4".into());
        assert!(e.to_string().contains("configuration error"));
        // QueryError satisfies the std error trait with a source chain.
        let e: Box<dyn std::error::Error> = Box::new(QueryError::from(StorageError::PageNotFound(
            PageId::from_raw(1),
        )));
        assert!(std::error::Error::source(e.as_ref()).is_some());
    }
}

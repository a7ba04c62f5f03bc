//! Storage-layer errors.

use crate::PageId;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The page id is not currently allocated.
    PageNotFound(PageId),
    /// A page write exceeded the configured page size.
    PageTooLarge {
        /// The page being written.
        page: PageId,
        /// Bytes attempted.
        len: usize,
        /// The configured page size.
        page_size: usize,
    },
    /// A disk id referenced a disk outside the array.
    NoSuchDisk {
        /// The offending disk index.
        disk: u32,
        /// Number of disks in the array.
        num_disks: u32,
    },
    /// A page was read before ever being written.
    UninitializedPage(PageId),
    /// An extent's buffer is not one whole page per page id.
    ExtentLength {
        /// Pages in the extent.
        pages: usize,
        /// Bytes supplied.
        len: usize,
    },
    /// The page contents failed to decode (corrupt or wrong codec version).
    CorruptPage {
        /// The page that failed to decode.
        page: PageId,
        /// Human-readable detail.
        detail: String,
    },
    /// A store superblock (`meta.sqda`) is unreadable, truncated, or has
    /// an unsupported version. Opening a damaged store must surface this
    /// typed error — never a panic or a silent garbage read.
    Superblock {
        /// The offending superblock path.
        path: String,
        /// Human-readable detail (what was wrong and where).
        detail: String,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::PageNotFound(p) => write!(f, "page {p} not found"),
            StorageError::PageTooLarge {
                page,
                len,
                page_size,
            } => write!(
                f,
                "write of {len} bytes to {page} exceeds page size {page_size}"
            ),
            StorageError::NoSuchDisk { disk, num_disks } => {
                write!(f, "disk {disk} out of range (array has {num_disks} disks)")
            }
            StorageError::UninitializedPage(p) => {
                write!(f, "page {p} was allocated but never written")
            }
            StorageError::ExtentLength { pages, len } => {
                write!(f, "extent of {pages} whole pages given {len} bytes")
            }
            StorageError::CorruptPage { page, detail } => {
                write!(f, "page {page} is corrupt: {detail}")
            }
            StorageError::Superblock { path, detail } => {
                write!(f, "bad superblock {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias for storage results.
pub type Result<T> = std::result::Result<T, StorageError>;

//! Paged storage layer for a declustered access method on a disk array.
//!
//! The SIGMOD'98 system distributes the pages (nodes) of an R\*-tree over
//! the disks of a RAID level-0 array, with the striping unit equal to one
//! disk block (= one tree node = one page). This crate provides:
//!
//! * [`PageId`] — stable page identifiers,
//! * [`Placement`] — which disk a page lives on and at which cylinder
//!   (the cylinder drives the seek-time model of the simulator),
//! * the [`PageStore`] trait — allocate / read / write / free pages with
//!   explicit disk placement, plus per-disk I/O accounting,
//! * [`ArrayStore`] — the in-memory RAID-0 store used by the simulation
//!   (contents are held in RAM; *timing* is provided by `sqda-simkernel`),
//! * [`LruCache`] — an optional fixed-capacity page cache,
//! * [`NodeCache`] — a thread-safe LRU over *decoded* nodes that the
//!   access methods can share for repeated-query workloads.
//!
//! Separating *what is stored where* (this crate) from *how long an access
//! takes* (the simulator) lets the similarity-search algorithms run either
//! logically (counting node accesses, Figures 8–9 of the paper) or under
//! the full event-driven timing model (Figures 10–12, Tables 3–4).

mod backend;
mod bytes;
mod cache;
mod error;
mod filestore;
mod page;
mod placement;
mod store;

pub use backend::{InlineBackend, IoBackend, ReadCompletion, ReadObserver, ThreadedFileBackend};
pub use bytes::{Bytes, BytesMut};
pub use cache::{CacheStats, LruCache, NodeCache, PageIdHashBuilder};
pub use error::{Result, StorageError};
pub use filestore::FileStore;
pub use page::{PageId, DEFAULT_PAGE_SIZE};
pub use placement::{DiskId, Placement};
pub use store::{ArrayStore, IoStats, PageStore};

/// Replaces the file at `path` with `bytes` so that a crash leaves the
/// old file or the new one, never a torn one: writes `<path>.tmp`,
/// syncs it, renames it over `path`, then syncs the directory, since the
/// rename is an entry in it. A store's superblock (`meta.sqda`) and the
/// small files beside it (`tree.meta`, `calibration.json`) are written
/// this way.
pub fn write_file_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(tmp, path)?;
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// A lock guard whatever the lock's poisoning. Every lock in the
/// workspace takes this policy: a holder that panicked has already
/// failed its own request, and the data it guarded is used as is.
fn unpoison<G>(lock: std::sync::LockResult<G>) -> G {
    lock.unwrap_or_else(std::sync::PoisonError::into_inner)
}

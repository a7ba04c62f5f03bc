//! The `PageStore` trait and the in-memory RAID-0 array store.

use crate::{DiskId, PageId, Placement, Result, StorageError, DEFAULT_PAGE_SIZE};
use bytes::Bytes;
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Cumulative I/O counters for a store.
///
/// The logical executor of the similarity-search algorithms uses these to
/// report the *number of visited nodes* (Figures 8–9 of the paper); the
/// per-disk breakdown exposes how well a declustering heuristic balances
/// load across the array. When a decoded-node cache fronts the store,
/// `cache_hits`/`cache_misses` record how many node lookups it absorbed
/// (zero for a bare store).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Total page reads.
    pub reads: u64,
    /// Total page writes.
    pub writes: u64,
    /// Reads broken down by disk.
    pub reads_per_disk: Vec<u64>,
    /// Writes broken down by disk.
    pub writes_per_disk: Vec<u64>,
    /// Node lookups served from a decoded-node cache without touching
    /// the store.
    pub cache_hits: u64,
    /// Node lookups that fell through the cache to the store.
    pub cache_misses: u64,
    /// Reads issued by tree profiling (`TreeProfile::measure`), counted
    /// separately so query experiments can subtract introspection I/O.
    pub profile_reads: u64,
    /// Bytes currently resident in the decoded-node cache (zero for a
    /// bare store or an entry-capped cache).
    pub cache_resident_bytes: u64,
    /// Byte budget of the decoded-node cache (zero for a bare store or
    /// an entry-capped cache).
    pub cache_byte_budget: u64,
}

impl IoStats {
    fn new(num_disks: u32) -> Self {
        Self {
            reads: 0,
            writes: 0,
            reads_per_disk: vec![0; num_disks as usize],
            writes_per_disk: vec![0; num_disks as usize],
            cache_hits: 0,
            cache_misses: 0,
            profile_reads: 0,
            cache_resident_bytes: 0,
            cache_byte_budget: 0,
        }
    }

    /// The coefficient of variation of per-disk read counts: 0 for a
    /// perfectly balanced array, larger when reads skew to few disks.
    pub fn read_imbalance(&self) -> f64 {
        let n = self.reads_per_disk.len();
        if n == 0 || self.reads == 0 {
            return 0.0;
        }
        let mean = self.reads as f64 / n as f64;
        let var = self
            .reads_per_disk
            .iter()
            .map(|&r| {
                let d = r as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }
}

/// Abstract paged storage with explicit disk placement.
///
/// The access method (the parallel R\*-tree) decides *which disk* each new
/// page goes to — that is the declustering heuristic — while the store
/// assigns the cylinder uniformly at random, mirroring the paper's setup.
/// All methods take `&self`; implementations use interior mutability so a
/// store can be shared by concurrent read-only queries.
pub trait PageStore: Send + Sync {
    /// Number of disks in the array.
    fn num_disks(&self) -> u32;

    /// Number of cylinders per disk (for the seek model).
    fn num_cylinders(&self) -> u32;

    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// Allocates a fresh page on the given disk. The cylinder is chosen by
    /// the store.
    fn allocate(&self, disk: DiskId) -> Result<PageId>;

    /// Writes the full contents of a page.
    fn write(&self, page: PageId, data: Bytes) -> Result<()>;

    /// Reads the contents of a page.
    fn read(&self, page: PageId) -> Result<Bytes>;

    /// Releases a page.
    fn free(&self, page: PageId) -> Result<()>;

    /// The physical placement of a page.
    fn placement(&self, page: PageId) -> Result<Placement>;

    /// Snapshot of the I/O counters.
    fn stats(&self) -> IoStats;

    /// Resets the I/O counters (e.g. after the build phase, so that query
    /// experiments measure only query I/O).
    fn reset_stats(&self);

    /// Number of allocated pages per disk. Declustering heuristics that
    /// balance page counts consult this; the default (all zeros) degrades
    /// them to their geometric criteria.
    fn pages_per_disk(&self) -> Vec<usize> {
        vec![0; self.num_disks() as usize]
    }

    /// Writes an *extent*: `data` holds one whole page per entry of
    /// `pages`, page `i` at `i × page_size`. Counts as `pages.len()`
    /// writes. The default is a loop over [`write`](Self::write); a store
    /// that can move neighbouring pages in one transfer overrides it. On
    /// error, which of the pages were written is unspecified.
    fn write_pages(&self, pages: &[PageId], data: &[u8]) -> Result<()> {
        let page_size = self.page_size();
        check_extent(pages, data, page_size)?;
        for (&page, chunk) in pages.iter().zip(data.chunks_exact(page_size)) {
            self.write(page, Bytes::copy_from_slice(chunk))?;
        }
        Ok(())
    }

    /// Reads an extent into `out`, resized to `pages.len() × page_size`:
    /// page `i` at `i × page_size`, a page written short padded with
    /// zeros. Counts as `pages.len()` reads.
    fn read_pages(&self, pages: &[PageId], out: &mut Vec<u8>) -> Result<()> {
        let page_size = self.page_size();
        out.clear();
        out.resize(pages.len() * page_size, 0);
        for (&page, slot) in pages.iter().zip(out.chunks_exact_mut(page_size)) {
            let data = self.read(page)?;
            slot[..data.len()].copy_from_slice(&data);
        }
        Ok(())
    }
}

/// An extent buffer must hold exactly one page per page id.
pub(crate) fn check_extent(pages: &[PageId], data: &[u8], page_size: usize) -> Result<()> {
    let (pages, len) = (pages.len(), data.len());
    if len == pages * page_size {
        Ok(())
    } else {
        Err(StorageError::ExtentLength { pages, len })
    }
}

struct Slot {
    data: Option<Bytes>,
    placement: Placement,
}

struct Inner {
    slots: Vec<Option<Slot>>,
    free_list: Vec<u64>,
    /// Live pages per disk, kept in step by `allocate`/`free`.
    live: Vec<usize>,
    rng: StdRng,
}

/// Lock-free I/O counters, kept outside the slot table's `RwLock` so the
/// hot read path never needs exclusive access just to do bookkeeping.
/// Relaxed ordering suffices: the counters are monotonic tallies with no
/// ordering relationship to the data they count. Shared with
/// [`crate::FileStore`], whose positional read path has the same
/// no-exclusive-access requirement.
pub(crate) struct Counters {
    pub(crate) reads: AtomicU64,
    pub(crate) writes: AtomicU64,
    reads_per_disk: Vec<AtomicU64>,
    writes_per_disk: Vec<AtomicU64>,
}

impl Counters {
    pub(crate) fn new(num_disks: u32) -> Self {
        Self {
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            reads_per_disk: (0..num_disks).map(|_| AtomicU64::new(0)).collect(),
            writes_per_disk: (0..num_disks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn tally_read(&self, disk: usize) {
        self.reads.fetch_add(1, Relaxed);
        self.reads_per_disk[disk].fetch_add(1, Relaxed);
    }

    pub(crate) fn tally_write(&self, disk: usize) {
        self.writes.fetch_add(1, Relaxed);
        self.writes_per_disk[disk].fetch_add(1, Relaxed);
    }

    pub(crate) fn snapshot(&self, num_disks: u32) -> IoStats {
        let mut stats = IoStats::new(num_disks);
        stats.reads = self.reads.load(Relaxed);
        stats.writes = self.writes.load(Relaxed);
        for (out, c) in stats.reads_per_disk.iter_mut().zip(&self.reads_per_disk) {
            *out = c.load(Relaxed);
        }
        for (out, c) in stats.writes_per_disk.iter_mut().zip(&self.writes_per_disk) {
            *out = c.load(Relaxed);
        }
        stats
    }

    pub(crate) fn reset(&self) {
        self.reads.store(0, Relaxed);
        self.writes.store(0, Relaxed);
        for c in &self.reads_per_disk {
            c.store(0, Relaxed);
        }
        for c in &self.writes_per_disk {
            c.store(0, Relaxed);
        }
    }
}

/// An in-memory RAID level-0 page store.
///
/// Contents live in RAM: this store answers *what* is on each page, while
/// `sqda-simkernel` models *how long* the access would take on the modelled
/// hardware. Reads and writes are counted per disk with atomic counters,
/// so concurrent readers only ever take the shared lock.
pub struct ArrayStore {
    num_disks: u32,
    num_cylinders: u32,
    page_size: usize,
    inner: RwLock<Inner>,
    counters: Counters,
}

impl ArrayStore {
    /// Creates a store backed by `num_disks` disks of `num_cylinders`
    /// cylinders each, with the default page size. The seed drives the
    /// random cylinder assignment.
    pub fn new(num_disks: u32, num_cylinders: u32, seed: u64) -> Self {
        Self::with_page_size(num_disks, num_cylinders, DEFAULT_PAGE_SIZE, seed)
    }

    /// Creates a store with an explicit page size.
    ///
    /// # Panics
    ///
    /// Panics if `num_disks`, `num_cylinders` or `page_size` is zero.
    pub fn with_page_size(num_disks: u32, num_cylinders: u32, page_size: usize, seed: u64) -> Self {
        assert!(num_disks > 0, "array needs at least one disk");
        assert!(num_cylinders > 0, "disks need at least one cylinder");
        assert!(page_size > 0, "page size must be positive");
        Self {
            num_disks,
            num_cylinders,
            page_size,
            inner: RwLock::new(Inner {
                slots: Vec::new(),
                free_list: Vec::new(),
                live: vec![0; num_disks as usize],
                rng: StdRng::seed_from_u64(seed),
            }),
            counters: Counters::new(num_disks),
        }
    }

    /// Number of currently allocated pages.
    pub fn allocated_pages(&self) -> usize {
        self.inner.read().live.iter().sum()
    }
}

impl PageStore for ArrayStore {
    fn num_disks(&self) -> u32 {
        self.num_disks
    }

    fn num_cylinders(&self) -> u32 {
        self.num_cylinders
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&self, disk: DiskId) -> Result<PageId> {
        if disk.0 >= self.num_disks {
            return Err(StorageError::NoSuchDisk {
                disk: disk.0,
                num_disks: self.num_disks,
            });
        }
        let mut inner = self.inner.write();
        let cylinder = inner.rng.gen_range(0..self.num_cylinders);
        inner.live[disk.index()] += 1;
        let placement = Placement::new(disk, cylinder);
        let slot = Slot {
            data: None,
            placement,
        };
        let raw = if let Some(raw) = inner.free_list.pop() {
            inner.slots[raw as usize] = Some(slot);
            raw
        } else {
            inner.slots.push(Some(slot));
            (inner.slots.len() - 1) as u64
        };
        Ok(PageId::from_raw(raw))
    }

    fn write(&self, page: PageId, data: Bytes) -> Result<()> {
        if data.len() > self.page_size {
            return Err(StorageError::PageTooLarge {
                page,
                len: data.len(),
                page_size: self.page_size,
            });
        }
        let mut inner = self.inner.write();
        let slot = inner
            .slots
            .get_mut(page.as_raw() as usize)
            .and_then(|s| s.as_mut())
            .ok_or(StorageError::PageNotFound(page))?;
        slot.data = Some(data);
        let disk = slot.placement.disk.index();
        self.counters.writes.fetch_add(1, Relaxed);
        self.counters.writes_per_disk[disk].fetch_add(1, Relaxed);
        Ok(())
    }

    fn read(&self, page: PageId) -> Result<Bytes> {
        // Read lock only: the slot table is not mutated, and the I/O
        // tally lives in atomics — concurrent readers never serialize.
        let inner = self.inner.read();
        let slot = inner
            .slots
            .get(page.as_raw() as usize)
            .and_then(|s| s.as_ref())
            .ok_or(StorageError::PageNotFound(page))?;
        let data = slot
            .data
            .clone()
            .ok_or(StorageError::UninitializedPage(page))?;
        let disk = slot.placement.disk.index();
        self.counters.reads.fetch_add(1, Relaxed);
        self.counters.reads_per_disk[disk].fetch_add(1, Relaxed);
        Ok(data)
    }

    fn free(&self, page: PageId) -> Result<()> {
        let mut inner = self.inner.write();
        let slot = inner
            .slots
            .get_mut(page.as_raw() as usize)
            .ok_or(StorageError::PageNotFound(page))?;
        let freed = slot.take().ok_or(StorageError::PageNotFound(page))?;
        inner.live[freed.placement.disk.index()] -= 1;
        inner.free_list.push(page.as_raw());
        Ok(())
    }

    fn placement(&self, page: PageId) -> Result<Placement> {
        let inner = self.inner.read();
        inner
            .slots
            .get(page.as_raw() as usize)
            .and_then(|s| s.as_ref())
            .map(|s| s.placement)
            .ok_or(StorageError::PageNotFound(page))
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot(self.num_disks)
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }

    fn pages_per_disk(&self) -> Vec<usize> {
        self.inner.read().live.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ArrayStore {
        ArrayStore::new(4, 100, 7)
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let s = store();
        let p = s.allocate(DiskId(2)).unwrap();
        s.write(p, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(s.read(p).unwrap(), Bytes::from_static(b"hello"));
        let pl = s.placement(p).unwrap();
        assert_eq!(pl.disk, DiskId(2));
        assert!(pl.cylinder < 100);
    }

    #[test]
    fn read_unwritten_page_fails() {
        let s = store();
        let p = s.allocate(DiskId(0)).unwrap();
        assert_eq!(s.read(p), Err(StorageError::UninitializedPage(p)));
    }

    #[test]
    fn read_unknown_page_fails() {
        let s = store();
        let bogus = PageId::from_raw(999);
        assert_eq!(s.read(bogus), Err(StorageError::PageNotFound(bogus)));
    }

    #[test]
    fn allocate_on_missing_disk_fails() {
        let s = store();
        assert_eq!(
            s.allocate(DiskId(4)),
            Err(StorageError::NoSuchDisk {
                disk: 4,
                num_disks: 4
            })
        );
    }

    #[test]
    fn oversized_write_fails() {
        let s = ArrayStore::with_page_size(1, 10, 8, 0);
        let p = s.allocate(DiskId(0)).unwrap();
        let err = s.write(p, Bytes::from(vec![0u8; 9])).unwrap_err();
        assert!(matches!(err, StorageError::PageTooLarge { len: 9, .. }));
        // Exactly page-size writes are fine.
        s.write(p, Bytes::from(vec![0u8; 8])).unwrap();
    }

    #[test]
    fn free_and_reuse() {
        let s = store();
        let p1 = s.allocate(DiskId(0)).unwrap();
        s.write(p1, Bytes::from_static(b"x")).unwrap();
        s.free(p1).unwrap();
        assert_eq!(s.read(p1), Err(StorageError::PageNotFound(p1)));
        // Freed slot is recycled.
        let p2 = s.allocate(DiskId(1)).unwrap();
        assert_eq!(p2, p1);
        assert_eq!(s.placement(p2).unwrap().disk, DiskId(1));
        // Double free fails.
        let p3 = s.allocate(DiskId(0)).unwrap();
        s.free(p3).unwrap();
        assert_eq!(s.free(p3), Err(StorageError::PageNotFound(p3)));
    }

    #[test]
    fn stats_count_per_disk() {
        let s = store();
        let a = s.allocate(DiskId(0)).unwrap();
        let b = s.allocate(DiskId(3)).unwrap();
        s.write(a, Bytes::from_static(b"a")).unwrap();
        s.write(b, Bytes::from_static(b"b")).unwrap();
        s.read(a).unwrap();
        s.read(a).unwrap();
        s.read(b).unwrap();
        let st = s.stats();
        assert_eq!(st.reads, 3);
        assert_eq!(st.writes, 2);
        assert_eq!(st.reads_per_disk, vec![2, 0, 0, 1]);
        assert_eq!(st.writes_per_disk, vec![1, 0, 0, 1]);
        s.reset_stats();
        assert_eq!(s.stats().reads, 0);
    }

    #[test]
    fn imbalance_metric() {
        let balanced = IoStats {
            reads: 8,
            reads_per_disk: vec![2, 2, 2, 2],
            writes_per_disk: vec![0; 4],
            ..IoStats::default()
        };
        assert_eq!(balanced.read_imbalance(), 0.0);
        let skewed = IoStats {
            reads: 8,
            reads_per_disk: vec![8, 0, 0, 0],
            writes_per_disk: vec![0; 4],
            ..IoStats::default()
        };
        assert!(skewed.read_imbalance() > 1.0);
    }

    #[test]
    fn concurrent_readers_see_consistent_stats() {
        // Many threads hammer the read path at once; the atomic counters
        // must account for every read, and the per-disk breakdown must
        // sum to the total.
        let s = store();
        let mut pages = Vec::new();
        for i in 0..16u32 {
            let p = s.allocate(DiskId(i % 4)).unwrap();
            s.write(p, Bytes::from(vec![i as u8; 4])).unwrap();
            pages.push(p);
        }
        s.reset_stats();
        const THREADS: usize = 8;
        const READS_PER_THREAD: usize = 500;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                let pages = &pages;
                scope.spawn(move || {
                    for i in 0..READS_PER_THREAD {
                        let p = pages[(t + i) % pages.len()];
                        s.read(p).unwrap();
                    }
                });
            }
        });
        let st = s.stats();
        assert_eq!(st.reads, (THREADS * READS_PER_THREAD) as u64);
        assert_eq!(st.reads_per_disk.iter().sum::<u64>(), st.reads);
        assert_eq!(st.writes, 0);
        assert_eq!(st.cache_hits, 0);
    }

    #[test]
    fn pages_per_disk_tracking() {
        let s = store();
        s.allocate(DiskId(1)).unwrap();
        s.allocate(DiskId(1)).unwrap();
        s.allocate(DiskId(2)).unwrap();
        assert_eq!(s.pages_per_disk(), vec![0, 2, 1, 0]);
        assert_eq!(s.allocated_pages(), 3);
    }

    #[test]
    fn cylinder_assignment_is_spread() {
        let s = ArrayStore::new(1, 1000, 42);
        let mut cyls = std::collections::HashSet::new();
        for _ in 0..100 {
            let p = s.allocate(DiskId(0)).unwrap();
            cyls.insert(s.placement(p).unwrap().cylinder);
        }
        // Uniform assignment over 1000 cylinders: expect many distinct.
        assert!(cyls.len() > 80, "got {} distinct cylinders", cyls.len());
    }
}

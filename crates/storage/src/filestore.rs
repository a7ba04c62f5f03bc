//! A file-backed page store: one file per disk of the array.
//!
//! [`ArrayStore`](crate::ArrayStore) keeps page contents in RAM because
//! the *timing* of the modelled 1998 hardware comes from the simulator;
//! `FileStore` instead persists pages to real files — one per disk — so
//! an index survives the process. Page contents are stored at
//! `slot × page_size` within their disk's file; a compact superblock
//! (`meta.sqda`) records the geometry and the placement table.
//!
//! Reads return exactly the bytes written (lengths are tracked in the
//! superblock), so any `PageStore` consumer works unchanged.
//!
//! # Concurrency
//!
//! All I/O is *positional* (`pread`/`pwrite`-style via [`FileExt`]):
//! every disk has one shared `File` handle with no cursor state, so
//! concurrent readers — in particular the per-disk worker threads of
//! [`crate::ThreadedFileBackend`] — never serialize on a lock to reach
//! the data. The placement table sits behind an `RwLock` taken in read
//! mode on the read path, and the I/O tallies are atomics, mirroring
//! [`ArrayStore`](crate::ArrayStore)'s lock-free accounting. Readers on
//! different disks (and on the same disk) proceed fully in parallel;
//! only allocate/free/write take the table lock exclusively.
//!
//! [`FileStore::read_resident`] is the same read with the kernel asked
//! not to block (`preadv2` + `RWF_NOWAIT`): it returns the bytes when the
//! OS page cache holds them and declines otherwise, which is how
//! [`crate::ThreadedFileBackend`] decides, per read, whether a hand-off
//! to a disk worker can buy anything.

use crate::bytes::Bytes;
use crate::store::{check_extent, Counters};
use crate::{unpoison, DiskId, IoStats, PageId, PageStore, Placement, Result, StorageError};
use sqda_geom::rng::Rng;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

const META_MAGIC: &[u8; 4] = b"SQDA";
const META_VERSION: u8 = 1;

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ))
            }
            n => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}

#[cfg(windows)]
fn write_all_at(file: &File, mut buf: &[u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        let n = file.seek_write(buf, offset)?;
        buf = &buf[n..];
        offset += n as u64;
    }
    Ok(())
}

/// The two Linux calls `std` has no safe wrapper for, declared against
/// the C library `std` already links (the workspace takes no registry
/// crates, `libc` included). 64-bit only, where `off_t` is `i64` in every ABI.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod os {
    use std::fs::File;
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    const RWF_NOWAIT: i32 = 0x8;
    const POSIX_FADV_DONTNEED: i32 = 4;

    unsafe extern "C" {
        fn preadv2(fd: i32, iov: *const IoVec, iovcnt: i32, offset: i64, flags: i32) -> isize;
        // Takes integers only and touches no caller memory: sound to
        // call with any arguments.
        safe fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
    }

    /// One `preadv2(RWF_NOWAIT)`: the byte count copied out of the page
    /// cache, or the error — `WouldBlock` when the read needs the device.
    pub(super) fn pread_nowait(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        let offset = i64::try_from(offset).map_err(std::io::Error::other)?;
        let iov = IoVec {
            base: buf.as_mut_ptr(),
            len: buf.len(),
        };
        // SAFETY: `iov` describes exactly the live, exclusively borrowed
        // `buf`, so the kernel writes at most `buf.len()` bytes into
        // memory we own; `iov` and `buf` outlive the call, which retains
        // neither; the descriptor is open because `file` is borrowed.
        let n = unsafe { preadv2(file.as_raw_fd(), &iov, 1, offset, RWF_NOWAIT) };
        if n < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    /// Flushes `file` and asks the kernel to drop its cached pages.
    pub(super) fn drop_cached(file: &File) -> std::io::Result<()> {
        file.sync_all()?; // dirty pages are not dropped
        match posix_fadvise(file.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) {
            0 => Ok(()),
            errno => Err(std::io::Error::from_raw_os_error(errno)),
        }
    }
}

/// Everywhere else the attempt is compiled out: every read is declined
/// (the first one latches it off) and eviction does nothing.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod os {
    use std::fs::File;

    pub(super) fn pread_nowait(_: &File, _: &mut [u8], _: u64) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::Unsupported.into())
    }

    pub(super) fn drop_cached(_: &File) -> std::io::Result<()> {
        Ok(())
    }
}

struct SlotInfo {
    placement: Placement,
    /// Slot index within the disk file.
    slot: u64,
    /// Bytes actually written (`u32::MAX` = never written).
    len: u32,
}

/// The placement table and allocator state, behind one `RwLock`. The
/// read path only ever takes it in shared mode (and drops it before
/// touching the file), so metadata lookups never serialize readers.
struct Meta {
    slots: Vec<Option<SlotInfo>>,
    /// Next fresh slot per disk.
    next_slot: Vec<u64>,
    /// Freed slots per disk, reused last-freed-first: one pop, however
    /// many scratch pages a streamed merge has freed ahead of the next
    /// allocation.
    free_slots: Vec<Vec<u64>>,
    /// Live pages per disk, kept in step by `allocate`/`free` so
    /// [`PageStore::pages_per_disk`] never rescans the table.
    live: Vec<usize>,
    /// Freed page ids for reuse.
    free_pages: Vec<u64>,
    rng: Rng,
}

impl Meta {
    /// The `(disk, slot)` of every page of an extent, under the caller's
    /// one lock; `written` also requires each to have been written.
    fn locate_extent(&self, pages: &[PageId], written: bool) -> Result<Vec<(usize, u64)>> {
        let locate = |&page: &PageId| {
            let info = self.slots.get(page.as_raw() as usize);
            let info = info
                .and_then(|s| s.as_ref())
                .ok_or(StorageError::PageNotFound(page))?;
            if written && info.len == NEVER_WRITTEN {
                return Err(StorageError::UninitializedPage(page));
            }
            Ok((info.placement.disk.index(), info.slot))
        };
        pages.iter().map(locate).collect()
    }
}

/// A persistent page store over one file per disk, with positional
/// (`pread`-style) I/O so concurrent readers never contend on a lock.
pub struct FileStore {
    dir: PathBuf,
    num_disks: u32,
    num_cylinders: u32,
    page_size: usize,
    /// One shared handle per disk; accessed exclusively through
    /// positional I/O, so no cursor state and no guarding lock.
    files: Vec<File>,
    meta: RwLock<Meta>,
    counters: Counters,
    /// Page transfers that shared a neighbour's positional call (see
    /// [`FileStore::io_calls`]).
    coalesced: AtomicU64,
    /// Cleared the first time the platform or the filesystem refuses a
    /// non-blocking read outright, so that costs one failed syscall per
    /// store, not one per read.
    nowait: AtomicBool,
}

const NEVER_WRITTEN: u32 = u32::MAX;

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("dir", &self.dir)
            .field("num_disks", &self.num_disks)
            .field("num_cylinders", &self.num_cylinders)
            .field("page_size", &self.page_size)
            .finish_non_exhaustive()
    }
}

/// A bounds-checked cursor over superblock bytes: every decode states
/// what it needed, so a truncated `meta.sqda` surfaces as a typed
/// [`StorageError::Superblock`] instead of a panic in [`Bytes`].
struct MetaReader<'a> {
    buf: Bytes,
    path: &'a Path,
}

impl<'a> MetaReader<'a> {
    fn bad(&self, detail: impl Into<String>) -> StorageError {
        StorageError::Superblock {
            path: self.path.display().to_string(),
            detail: detail.into(),
        }
    }

    fn need(&self, n: usize, what: &str) -> Result<()> {
        if self.buf.len() < n {
            Err(self.bad(format!(
                "truncated: {what} needs {n} bytes, {} left",
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        self.need(1, what)?;
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        self.need(4, what)?;
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        self.need(8, what)?;
        Ok(self.buf.get_u64_le())
    }
}

impl FileStore {
    /// Creates a fresh store in `dir` (created if missing; must not
    /// already hold a store). Zero disks, cylinders or page size are an
    /// `InvalidInput` error, before anything is created.
    pub fn create(
        dir: &Path,
        num_disks: u32,
        num_cylinders: u32,
        page_size: usize,
        seed: u64,
    ) -> std::io::Result<Self> {
        if num_disks == 0 || num_cylinders == 0 || page_size == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "a store needs disks, cylinders and a page size; got {num_disks} disks, \
                     {num_cylinders} cylinders, {page_size}-byte pages"
                ),
            ));
        }
        std::fs::create_dir_all(dir)?;
        if dir.join("meta.sqda").exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "store already exists; use FileStore::open",
            ));
        }
        let files = (0..num_disks)
            .map(|d| {
                OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(dir.join(format!("disk{d:04}.sqda")))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let store = Self {
            dir: dir.to_path_buf(),
            num_disks,
            num_cylinders,
            page_size,
            files,
            meta: RwLock::new(Meta {
                slots: Vec::new(),
                next_slot: vec![0; num_disks as usize],
                free_slots: vec![Vec::new(); num_disks as usize],
                live: vec![0; num_disks as usize],
                free_pages: Vec::new(),
                rng: Rng::seed_from_u64(seed),
            }),
            counters: Counters::new(num_disks),
            coalesced: AtomicU64::new(0),
            nowait: AtomicBool::new(true),
        };
        store.sync()?;
        Ok(store)
    }

    /// Opens an existing store, restoring geometry and placements from
    /// the superblock.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Superblock`] — carrying the offending
    /// path — when `meta.sqda` is missing, unreadable, truncated, has a
    /// bad magic or an unsupported version, or references disks outside
    /// its own declared geometry. Damage is never papered over with a
    /// partial table.
    pub fn open(dir: &Path) -> Result<Self> {
        let meta_path = dir.join("meta.sqda");
        let bad = |detail: String| StorageError::Superblock {
            path: meta_path.display().to_string(),
            detail,
        };
        let mut meta_bytes = Vec::new();
        File::open(&meta_path)
            .and_then(|mut f| f.read_to_end(&mut meta_bytes))
            .map_err(|e| bad(format!("unreadable: {e}")))?;
        let mut r = MetaReader {
            buf: Bytes::from(meta_bytes),
            path: &meta_path,
        };
        r.need(4, "magic")?;
        let mut magic = [0u8; 4];
        r.buf.copy_to_slice(&mut magic);
        if &magic != META_MAGIC {
            return Err(r.bad(format!(
                "bad magic {magic:02x?} (expected {META_MAGIC:02x?})"
            )));
        }
        let version = r.u8("version")?;
        if version != META_VERSION {
            return Err(r.bad(format!(
                "unsupported superblock version {version} (this build reads version \
                 {META_VERSION})"
            )));
        }
        let num_disks = r.u32("disk count")?;
        if num_disks == 0 {
            return Err(r.bad("geometry declares zero disks"));
        }
        let num_cylinders = r.u32("cylinder count")?;
        let page_size = r.u64("page size")? as usize;
        if page_size == 0 {
            return Err(r.bad("geometry declares zero page size"));
        }
        let rng_seed = r.u64("rng seed")?;
        let n_slots = r.u64("slot count")? as usize;
        // Each slot record is at least its one tag byte, so a slot count
        // exceeding the remaining bytes is provably truncation — checked
        // before reserving memory for the table.
        r.need(n_slots, "slot table")?;
        let mut slots = Vec::with_capacity(n_slots);
        let mut next_slot = vec![0u64; num_disks as usize];
        let mut live = vec![0usize; num_disks as usize];
        let mut free_pages = Vec::new();
        for page in 0..n_slots {
            let tag = r.u8("slot tag")?;
            match tag {
                0 => {
                    slots.push(None);
                    free_pages.push(page as u64);
                }
                1 => {
                    let disk = r.u32("slot disk")?;
                    let cylinder = r.u32("slot cylinder")?;
                    let slot = r.u64("slot index")?;
                    let len = r.u32("slot length")?;
                    if disk >= num_disks {
                        return Err(r.bad(format!(
                            "page {page} placed on disk {disk}, but the geometry \
                             declares only {num_disks} disks"
                        )));
                    }
                    next_slot[disk as usize] = next_slot[disk as usize].max(slot + 1);
                    live[disk as usize] += 1;
                    slots.push(Some(SlotInfo {
                        placement: Placement::new(DiskId(disk), cylinder),
                        slot,
                        len,
                    }));
                }
                other => {
                    return Err(r.bad(format!("page {page}: unknown slot tag {other}")));
                }
            }
        }
        if !r.buf.is_empty() {
            return Err(r.bad(format!(
                "{} trailing bytes after the slot table",
                r.buf.len()
            )));
        }
        let files = (0..num_disks)
            .map(|d| {
                let path = dir.join(format!("disk{d:04}.sqda"));
                OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                    .map_err(|e| bad(format!("disk file {} unreadable: {e}", path.display())))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            dir: dir.to_path_buf(),
            num_disks,
            num_cylinders,
            page_size,
            files,
            meta: RwLock::new(Meta {
                slots,
                next_slot,
                free_slots: vec![Vec::new(); num_disks as usize],
                live,
                free_pages,
                rng: Rng::seed_from_u64(rng_seed),
            }),
            counters: Counters::new(num_disks),
            coalesced: AtomicU64::new(0),
            nowait: AtomicBool::new(true),
        })
    }

    /// Writes the superblock (placement table) to disk.
    pub fn sync(&self) -> std::io::Result<()> {
        let meta = unpoison(self.meta.read());
        let mut buf = Vec::new();
        buf.extend_from_slice(META_MAGIC);
        buf.push(META_VERSION);
        buf.extend_from_slice(&self.num_disks.to_le_bytes());
        buf.extend_from_slice(&self.num_cylinders.to_le_bytes());
        buf.extend_from_slice(&(self.page_size as u64).to_le_bytes());
        // Persist a derived seed so reopened stores keep drawing fresh
        // cylinders (exact stream continuation is not required).
        buf.extend_from_slice(&0xC0FFEE_u64.to_le_bytes());
        buf.extend_from_slice(&(meta.slots.len() as u64).to_le_bytes());
        for slot in &meta.slots {
            match slot {
                None => buf.push(0),
                Some(info) => {
                    buf.push(1);
                    buf.extend_from_slice(&info.placement.disk.0.to_le_bytes());
                    buf.extend_from_slice(&info.placement.cylinder.to_le_bytes());
                    buf.extend_from_slice(&info.slot.to_le_bytes());
                    buf.extend_from_slice(&info.len.to_le_bytes());
                }
            }
        }
        crate::write_file_atomic(&self.dir.join("meta.sqda"), &buf)
    }

    fn io_err(e: std::io::Error, page: PageId) -> StorageError {
        StorageError::CorruptPage {
            page,
            detail: format!("file I/O: {e}"),
        }
    }

    /// One metadata lookup: where `page` lives, its byte offset in that
    /// disk's file, and its stored length (`NEVER_WRITTEN` included).
    fn locate(&self, page: PageId) -> Result<(Placement, u64, u32)> {
        let meta = unpoison(self.meta.read());
        let info = meta
            .slots
            .get(page.as_raw() as usize)
            .and_then(|s| s.as_ref())
            .ok_or(StorageError::PageNotFound(page))?;
        Ok((info.placement, info.slot * self.page_size as u64, info.len))
    }

    /// [`PageStore::read`] for a caller that must not block: the page's
    /// placement, and its bytes if the OS page cache could supply all of
    /// them at once. A successful read is tallied like any other.
    ///
    /// `None` means "read it somewhere that may block": the kernel said
    /// the read needs the device, came up short, or failed, the page was
    /// never written, or this platform has no non-blocking read. The
    /// reason is deliberately not typed here — [`PageStore::read`] stays
    /// the one place that turns a failing read into a [`StorageError`].
    ///
    /// `Some` does not prove the page was resident when asked. The
    /// non-blocking attempt starts read-ahead, and when that completes
    /// before the kernel re-checks, a cold page is served too, after this
    /// thread waited on the device (342 of 2 000 cold reads in one probe
    /// on a VM). For cold pages the answer follows read-ahead timing and
    /// does not repeat from run to run.
    ///
    /// # Errors
    ///
    /// [`StorageError::PageNotFound`] when `page` has no placement.
    pub fn read_resident(&self, page: PageId) -> Result<(Placement, Option<Bytes>)> {
        let (placement, offset, len) = self.locate(page)?;
        let data = if len == NEVER_WRITTEN {
            None
        } else {
            self.pread_nowait(placement.disk.index(), offset, len as usize)
        };
        Ok((placement, data))
    }

    fn pread_nowait(&self, disk: usize, offset: u64, len: usize) -> Option<Bytes> {
        if !self.nowait_supported() {
            return None;
        }
        // Read straight into the page's final block; a short read is
        // declined like a refused one.
        let read = Bytes::try_filled(len, |buf| -> std::io::Result<()> {
            match os::pread_nowait(&self.files[disk], buf, offset)? {
                n if n == len => Ok(()),
                _ => Err(std::io::ErrorKind::UnexpectedEof.into()),
            }
        });
        match read {
            Ok(data) => {
                self.counters.tally_read(disk);
                Some(data)
            }
            Err(e) => {
                // ENOSYS / EOPNOTSUPP (kernel or filesystem without
                // RWF_NOWAIT) and EINVAL (flag rejected) will not change
                // on a retry; EAGAIN and the rest are per read.
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Unsupported | std::io::ErrorKind::InvalidInput
                ) {
                    self.nowait.store(false, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Whether [`read_resident`](Self::read_resident) still attempts
    /// non-blocking reads: `false` once the platform or this store's
    /// filesystem has refused one.
    pub fn nowait_supported(&self) -> bool {
        self.nowait.load(Ordering::Relaxed)
    }

    /// The directory holding the store's disk files and superblock.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Positional file calls (`pread`/`pwrite`) behind the page reads and
    /// writes tallied since the last [`PageStore::reset_stats`]: one per
    /// page, less the pages of an extent that rode in a neighbour's call.
    /// Exact and repeatable for a fixed sequence of operations.
    pub fn io_calls(&self) -> u64 {
        let io = self.stats();
        io.reads + io.writes - self.coalesced.load(Ordering::Relaxed)
    }

    /// Lays down one whole, already padded slot per page from `slots`,
    /// recording `len` as each page's stored length: all of the pages are
    /// marked written, or on error none is.
    fn write_slots(&self, pages: &[PageId], slots: &[u8], len: u32) -> Result<()> {
        let mut meta = unpoison(self.meta.write());
        let at = meta.locate_extent(pages, false)?;
        for &page in pages {
            let info = meta.slots[page.as_raw() as usize].as_mut();
            info.expect("located above").len = len;
        }
        drop(meta);
        self.for_each_run(pages, &at, Counters::tally_write, |file, bytes, offset| {
            write_all_at(file, &slots[bytes], offset)
        })
    }

    /// Moves an extent located at `at`: one `io(file, byte range of the
    /// extent buffer, file offset)` per maximal run of pages in consecutive
    /// slots of one disk, each page tallied, and what the runs saved over
    /// one call per page counted for [`FileStore::io_calls`].
    fn for_each_run(
        &self,
        pages: &[PageId],
        at: &[(usize, u64)],
        tally: fn(&Counters, usize),
        mut io: impl FnMut(&File, std::ops::Range<usize>, u64) -> std::io::Result<()>,
    ) -> Result<()> {
        let ps = self.page_size;
        let mut i = 0;
        while i < at.len() {
            let (disk, slot) = at[i];
            let neighbours = at[i..].iter().zip(slot..);
            let run = neighbours.take_while(|&(&a, s)| a == (disk, s)).count();
            io(&self.files[disk], i * ps..(i + run) * ps, slot * ps as u64)
                .map_err(|e| Self::io_err(e, pages[i]))?;
            (0..run).for_each(|_| tally(&self.counters, disk));
            self.coalesced.fetch_add(run as u64 - 1, Ordering::Relaxed);
            i += run;
        }
        Ok(())
    }

    /// Flushes every disk file and asks the OS to drop its cached pages
    /// (`posix_fadvise(DONTNEED)`), so the next reads come from the
    /// device — what an honest cold measurement needs. Advisory: a
    /// RAM-backed filesystem keeps its pages, and elsewhere than Linux
    /// this does nothing.
    pub fn evict_from_os_cache(&self) -> std::io::Result<()> {
        self.files.iter().try_for_each(os::drop_cached)
    }
}

impl PageStore for FileStore {
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
        let mut meta = unpoison(self.meta.write());
        let cylinder = meta.rng.gen_range(0..self.num_cylinders);
        // Prefer a freed slot on the target disk.
        let slot = meta.free_slots[disk.index()].pop().unwrap_or_else(|| {
            let s = meta.next_slot[disk.index()];
            meta.next_slot[disk.index()] += 1;
            s
        });
        meta.live[disk.index()] += 1;
        let info = SlotInfo {
            placement: Placement::new(disk, cylinder),
            slot,
            len: NEVER_WRITTEN,
        };
        let raw = if let Some(raw) = meta.free_pages.pop() {
            meta.slots[raw as usize] = Some(info);
            raw
        } else {
            meta.slots.push(Some(info));
            (meta.slots.len() - 1) as u64
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
        // One write of the whole slot, payload then zeros: slots never
        // overlap and a shorter rewrite leaves no stale tail behind.
        let mut slot = vec![0u8; self.page_size];
        slot[..data.len()].copy_from_slice(&data);
        self.write_slots(&[page], &slot, data.len() as u32)
    }

    fn read(&self, page: PageId) -> Result<Bytes> {
        // Shared metadata lock, dropped before the file access; the read
        // itself is positional on the per-disk handle, so concurrent
        // readers — same disk or different disks — never serialize.
        let (placement, offset, len) = self.locate(page)?;
        if len == NEVER_WRITTEN {
            return Err(StorageError::UninitializedPage(page));
        }
        let disk = placement.disk.index();
        let data = Bytes::try_filled(len as usize, |buf| {
            read_exact_at(&self.files[disk], buf, offset).map_err(|e| Self::io_err(e, page))
        })?;
        self.counters.tally_read(disk);
        Ok(data)
    }

    fn free(&self, page: PageId) -> Result<()> {
        let mut meta = unpoison(self.meta.write());
        let info = meta
            .slots
            .get_mut(page.as_raw() as usize)
            .ok_or(StorageError::PageNotFound(page))?
            .take()
            .ok_or(StorageError::PageNotFound(page))?;
        let disk = info.placement.disk.index();
        meta.free_slots[disk].push(info.slot);
        meta.live[disk] -= 1;
        meta.free_pages.push(page.as_raw());
        Ok(())
    }

    fn placement(&self, page: PageId) -> Result<Placement> {
        self.locate(page).map(|(placement, _, _)| placement)
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot(self.num_disks)
    }

    fn reset_stats(&self) {
        self.counters.reset();
        self.coalesced.store(0, Ordering::Relaxed);
    }

    fn pages_per_disk(&self) -> Vec<usize> {
        unpoison(self.meta.read()).live.clone()
    }

    fn write_pages(&self, pages: &[PageId], data: &[u8]) -> Result<()> {
        check_extent(pages, data, self.page_size)?;
        self.write_slots(pages, data, self.page_size as u32)
    }

    fn read_pages(&self, pages: &[PageId], out: &mut Vec<u8>) -> Result<()> {
        let ps = self.page_size;
        let at = unpoison(self.meta.read()).locate_extent(pages, true)?;
        out.clear();
        out.resize(pages.len() * ps, 0);
        // Whole slots: `write` zero-pads each to the page size on disk.
        self.for_each_run(pages, &at, Counters::tally_read, |file, bytes, offset| {
            read_exact_at(file, &mut out[bytes], offset)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sqda-filestore-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn empty_geometries_are_refused_before_anything_is_made() {
        let dir = tmpdir("empty-geometry");
        for (disks, cylinders, page_size) in [(0, 100, 256), (3, 0, 256), (3, 100, 0)] {
            let err = FileStore::create(&dir, disks, cylinders, page_size, 1).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(!dir.exists());
        }
    }

    #[test]
    fn roundtrip_and_padding() {
        let dir = tmpdir("roundtrip");
        let s = FileStore::create(&dir, 3, 100, 256, 1).unwrap();
        let p = s.allocate(DiskId(1)).unwrap();
        s.write(p, Bytes::from_static(b"hello world")).unwrap();
        assert_eq!(s.read(p).unwrap(), Bytes::from_static(b"hello world"));
        // Rewrite with different length.
        s.write(p, Bytes::from_static(b"xy")).unwrap();
        assert_eq!(s.read(p).unwrap(), Bytes::from_static(b"xy"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_lays_down_one_zero_padded_slot() {
        // The raw disk file, byte for byte: payload then zeros up to the
        // slot size, for a short, a full-length and an empty payload, and
        // no stale tail after a longer-then-shorter rewrite.
        let dir = tmpdir("rawbytes");
        let s = FileStore::create(&dir, 1, 10, 16, 1).unwrap();
        let pages: Vec<_> = (0..3).map(|_| s.allocate(DiskId(0)).unwrap()).collect();
        s.write(pages[0], Bytes::from_static(b"a longer one"))
            .unwrap();
        s.write(pages[0], Bytes::from_static(b"short")).unwrap();
        s.write(pages[1], Bytes::from(vec![7u8; 16])).unwrap();
        s.write(pages[2], Bytes::new()).unwrap();
        let mut want = vec![0u8; 48];
        want[..5].copy_from_slice(b"short");
        want[16..32].fill(7);
        assert_eq!(std::fs::read(dir.join("disk0000.sqda")).unwrap(), want);
        assert_eq!(s.read(pages[0]).unwrap(), Bytes::from_static(b"short"));
        assert_eq!(s.read(pages[2]).unwrap(), Bytes::new());
        assert_eq!(s.stats().writes, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_resident_matches_read_or_declines() {
        let dir = tmpdir("resident");
        let s = FileStore::create(&dir, 2, 10, 64, 1).unwrap();
        let p = s.allocate(DiskId(1)).unwrap();
        let blank = s.allocate(DiskId(0)).unwrap();
        s.write(p, Bytes::from_static(b"payload")).unwrap();
        s.reset_stats();
        // A page just written is in the OS cache: served, and tallied
        // like a `read` — unless this filesystem has no NOWAIT reads.
        let (placement, data) = s.read_resident(p).unwrap();
        assert_eq!(placement, s.placement(p).unwrap());
        if s.nowait_supported() {
            assert_eq!(data, Some(Bytes::from_static(b"payload")));
            assert_eq!(s.stats().reads_per_disk, vec![0, 1]);
        } else {
            assert_eq!(data, None);
            assert_eq!(s.stats().reads, 0);
        }
        // Never written: declined with its placement, not typed here.
        let (placement, data) = s.read_resident(blank).unwrap();
        assert_eq!((placement.disk, data), (DiskId(0), None));
        assert!(matches!(
            s.read_resident(PageId::from_raw(99)),
            Err(StorageError::PageNotFound(_))
        ));
        // Eviction never changes what a read returns.
        s.evict_from_os_cache().unwrap();
        assert_eq!(s.read(p).unwrap(), Bytes::from_static(b"payload"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistence_across_open() {
        let dir = tmpdir("persist");
        let (p1, p2);
        {
            let s = FileStore::create(&dir, 2, 50, 128, 2).unwrap();
            p1 = s.allocate(DiskId(0)).unwrap();
            p2 = s.allocate(DiskId(1)).unwrap();
            s.write(p1, Bytes::from_static(b"first")).unwrap();
            s.write(p2, Bytes::from_static(b"second page")).unwrap();
            s.sync().unwrap();
        }
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.num_disks(), 2);
        assert_eq!(s.page_size(), 128);
        assert_eq!(s.read(p1).unwrap(), Bytes::from_static(b"first"));
        assert_eq!(s.read(p2).unwrap(), Bytes::from_static(b"second page"));
        assert_eq!(s.placement(p2).unwrap().disk, DiskId(1));
        // New allocations don't collide with restored ones.
        let p3 = s.allocate(DiskId(0)).unwrap();
        s.write(p3, Bytes::from_static(b"third")).unwrap();
        assert_eq!(s.read(p1).unwrap(), Bytes::from_static(b"first"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing() {
        let dir = tmpdir("exists");
        let _s = FileStore::create(&dir, 1, 10, 64, 3).unwrap();
        assert!(FileStore::create(&dir, 1, 10, 64, 3).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn free_and_slot_reuse() {
        let dir = tmpdir("free");
        let s = FileStore::create(&dir, 1, 10, 64, 4).unwrap();
        let a = s.allocate(DiskId(0)).unwrap();
        s.write(a, Bytes::from_static(b"a")).unwrap();
        s.free(a).unwrap();
        assert!(matches!(s.read(a), Err(StorageError::PageNotFound(_))));
        let b = s.allocate(DiskId(0)).unwrap();
        // Page id and file slot both recycled.
        assert_eq!(b, a);
        s.write(b, Bytes::from_static(b"b")).unwrap();
        assert_eq!(s.read(b).unwrap(), Bytes::from_static(b"b"));
        // The file didn't grow: one page's worth of data.
        let len = std::fs::metadata(dir.join("disk0000.sqda")).unwrap().len();
        assert_eq!(len, 64);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Random allocate / write / free traffic; returns the live pages.
    fn churn(s: &dyn PageStore, seed: u64) -> Vec<PageId> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut live = Vec::new();
        for _ in 0..600 {
            match rng.gen_range(0..10) {
                0..=4 => {
                    let disk = DiskId(rng.gen_range(0..s.num_disks()));
                    live.push(s.allocate(disk).unwrap());
                }
                5..=6 if !live.is_empty() => {
                    let page = live[rng.gen_range(0..live.len())];
                    s.write(page, Bytes::from(vec![7u8; 9])).unwrap();
                }
                _ if !live.is_empty() => {
                    let page = live.swap_remove(rng.gen_range(0..live.len()));
                    s.free(page).unwrap();
                }
                _ => {}
            }
        }
        live
    }

    fn recount(s: &dyn PageStore, live: &[PageId]) -> Vec<usize> {
        let mut counts = vec![0usize; s.num_disks() as usize];
        for &page in live {
            counts[s.placement(page).unwrap().disk.index()] += 1;
        }
        counts
    }

    #[test]
    fn pages_per_disk_matches_a_recount_of_live_placements() {
        for seed in 0..8 {
            let array = crate::ArrayStore::with_page_size(5, 100, 64, seed);
            let live = churn(&array, seed);
            assert_eq!(array.pages_per_disk(), recount(&array, &live), "{seed}");
            assert_eq!(array.allocated_pages(), live.len(), "{seed}");

            let dir = tmpdir(&format!("counts{seed}"));
            let file = FileStore::create(&dir, 5, 100, 64, seed).unwrap();
            let mut live = churn(&file, seed);
            assert_eq!(file.pages_per_disk(), recount(&file, &live), "{seed}");
            file.sync().unwrap();
            drop(file);
            // The counts are not persisted: `open` rebuilds them from the
            // slot table, and they keep tracking afterwards.
            let file = FileStore::open(&dir).unwrap();
            assert_eq!(file.pages_per_disk(), recount(&file, &live), "{seed}");
            live.extend(churn(&file, seed + 100));
            assert_eq!(file.pages_per_disk(), recount(&file, &live), "{seed}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn free_slots_are_reused_per_disk_without_growing_the_files() {
        let dir = tmpdir("perdisk");
        let s = FileStore::create(&dir, 2, 10, 64, 4).unwrap();
        let pages: Vec<_> = (0..6).map(|i| s.allocate(DiskId(i % 2)).unwrap()).collect();
        for &p in &pages {
            s.write(p, Bytes::from_static(b"x")).unwrap();
            s.free(p).unwrap();
        }
        // Three freed slots per disk: six new pages, three a disk, fit
        // the files as they are; a fourth on one disk takes a fresh slot.
        for i in 0..6 {
            let p = s.allocate(DiskId(i % 2)).unwrap();
            s.write(p, Bytes::from_static(b"y")).unwrap();
        }
        let len = |d: &str| std::fs::metadata(dir.join(d)).unwrap().len();
        assert_eq!((len("disk0000.sqda"), len("disk0001.sqda")), (192, 192));
        let p = s.allocate(DiskId(1)).unwrap();
        s.write(p, Bytes::from_static(b"z")).unwrap();
        assert_eq!((len("disk0000.sqda"), len("disk0001.sqda")), (192, 256));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Forwards the required methods only, so the extent methods are the
    /// trait's per-page loops: the reference `FileStore`'s own are held to.
    struct PerPage(FileStore);

    impl PageStore for PerPage {
        fn num_disks(&self) -> u32 {
            self.0.num_disks()
        }
        fn num_cylinders(&self) -> u32 {
            self.0.num_cylinders()
        }
        fn page_size(&self) -> usize {
            self.0.page_size()
        }
        fn allocate(&self, disk: DiskId) -> Result<PageId> {
            self.0.allocate(disk)
        }
        fn write(&self, page: PageId, data: Bytes) -> Result<()> {
            self.0.write(page, data)
        }
        fn read(&self, page: PageId) -> Result<Bytes> {
            self.0.read(page)
        }
        fn free(&self, page: PageId) -> Result<()> {
            self.0.free(page)
        }
        fn placement(&self, page: PageId) -> Result<Placement> {
            self.0.placement(page)
        }
        fn stats(&self) -> IoStats {
            self.0.stats()
        }
        fn reset_stats(&self) {
            self.0.reset_stats()
        }
    }

    /// `n` pages of recognisable bytes, page `i` filled with `tag + i`.
    fn extent_bytes(n: usize, page_size: usize, tag: u8) -> Vec<u8> {
        (0..n * page_size)
            .map(|b| tag.wrapping_add((b / page_size) as u8))
            .collect()
    }

    /// Writes then reads `pages` as one extent on both stores; both must
    /// return the same bytes and agree on `IoStats`.
    fn roundtrip_both(ext: &FileStore, per_page: &PerPage, pages: &[PageId], tag: u8) {
        let data = extent_bytes(pages.len(), ext.page_size(), tag);
        let (mut a, mut b) = (Vec::new(), vec![9u8; 3]);
        for (store, out) in [(ext as &dyn PageStore, &mut a), (per_page, &mut b)] {
            store.write_pages(pages, &data).unwrap();
            store.read_pages(pages, out).unwrap();
        }
        assert_eq!(a, data);
        assert_eq!(b, data);
        assert_eq!(ext.stats(), per_page.stats());
    }

    #[test]
    fn extent_io_matches_the_per_page_loops() {
        let (dir_a, dir_b) = (tmpdir("extent-a"), tmpdir("extent-b"));
        let ext = FileStore::create(&dir_a, 3, 10, 32, 5).unwrap();
        let per_page = PerPage(FileStore::create(&dir_b, 3, 10, 32, 5).unwrap());
        let alloc = |disk: u32, n: usize| -> Vec<PageId> {
            (0..n)
                .map(|_| {
                    let page = ext.allocate(DiskId(disk)).unwrap();
                    assert_eq!(per_page.allocate(DiskId(disk)).unwrap(), page);
                    page
                })
                .collect()
        };
        let free = |pages: &mut dyn Iterator<Item = &PageId>| {
            for &page in pages {
                ext.free(page).unwrap();
                per_page.free(page).unwrap();
            }
        };
        let calls = |f: &dyn Fn()| {
            let before = ext.io_calls();
            f();
            ext.io_calls() - before
        };

        // Fresh consecutive slots on one disk: one call each way, where
        // the per-page store makes sixteen.
        let fresh = alloc(0, 8);
        assert_eq!(calls(&|| roundtrip_both(&ext, &per_page, &fresh, 1)), 2);
        assert_eq!(per_page.0.io_calls(), 16);
        assert_eq!(ext.stats().writes_per_disk, vec![8, 0, 0]);

        // A single page.
        assert_eq!(
            calls(&|| roundtrip_both(&ext, &per_page, &fresh[3..4], 40)),
            2
        );

        // Pages spread over several disks: a run per change of disk.
        let spread: Vec<PageId> = (0..6).flat_map(|i| alloc(i % 3, 1)).collect();
        assert_eq!(calls(&|| roundtrip_both(&ext, &per_page, &spread, 60)), 12);
        // Two disks' neighbours in one list: two runs.
        let two: Vec<PageId> = [alloc(1, 3), alloc(2, 3)].concat();
        assert_eq!(calls(&|| roundtrip_both(&ext, &per_page, &two, 80)), 4);

        // Recycled slots come back last-freed-first: an extent freed last
        // page first is handed out ascending, one run again; freed in page
        // order it comes back descending, no two neighbours in a row.
        free(&mut fresh.iter().rev());
        let ascending = alloc(0, 8);
        assert_eq!(
            calls(&|| roundtrip_both(&ext, &per_page, &ascending, 100)),
            2
        );
        free(&mut ascending.iter());
        let descending = alloc(0, 8);
        assert_eq!(
            calls(&|| roundtrip_both(&ext, &per_page, &descending, 120)),
            16
        );
        // Fragmented: slots 7, 5, 3, 1 freed, so six pages take 1, 3, 5, 7
        // and the fresh 10, 11 (`spread` holds 8 and 9) — four lone pages
        // and a run of two.
        free(&mut descending.iter().step_by(2));
        let fragmented = alloc(0, 6);
        assert_eq!(
            calls(&|| roundtrip_both(&ext, &per_page, &fragmented, 140)),
            10
        );

        // A short page laid down by `write` reads back zero-padded.
        let short = alloc(1, 2);
        for store in [&ext as &dyn PageStore, &per_page] {
            store.write(short[0], Bytes::from_static(b"short")).unwrap();
            store.write(short[1], Bytes::from(vec![7u8; 32])).unwrap();
            let mut out = Vec::new();
            store.read_pages(&short, &mut out).unwrap();
            let mut want = vec![0u8; 64];
            want[..5].copy_from_slice(b"short");
            want[32..].fill(7);
            assert_eq!(out, want);
        }
        assert_eq!(ext.stats(), per_page.stats());

        // The same typed errors.
        let blank = alloc(2, 2);
        let unknown = PageId::from_raw(9_999);
        let data = extent_bytes(2, 32, 0);
        for store in [&ext as &dyn PageStore, &per_page] {
            let mut out = Vec::new();
            assert_eq!(
                store.read_pages(&[fresh[0], unknown], &mut out),
                Err(StorageError::PageNotFound(unknown))
            );
            assert_eq!(
                store.read_pages(&[short[0], blank[0]], &mut out),
                Err(StorageError::UninitializedPage(blank[0]))
            );
            assert_eq!(
                store.write_pages(&[unknown, blank[1]], &data),
                Err(StorageError::PageNotFound(unknown))
            );
            for len in [0, 33, 63, 65] {
                assert_eq!(
                    store.write_pages(&blank, &data.repeat(2)[..len]),
                    Err(StorageError::ExtentLength { pages: 2, len })
                );
            }
            store.write_pages(&[], &[]).unwrap();
            store.read_pages(&[], &mut out).unwrap();
            assert!(out.is_empty());
        }
        // Where the loop would have written the pages before the bad one,
        // the extent write touches nothing.
        assert_eq!(
            ext.write_pages(&[blank[1], unknown], &data),
            Err(StorageError::PageNotFound(unknown))
        );
        assert_eq!(
            ext.read(blank[1]),
            Err(StorageError::UninitializedPage(blank[1]))
        );

        // Byte for byte the same files.
        for d in 0..3 {
            let name = format!("disk{d:04}.sqda");
            assert_eq!(
                std::fs::read(dir_a.join(&name)).unwrap(),
                std::fs::read(dir_b.join(&name)).unwrap(),
                "{name}"
            );
        }
        ext.reset_stats();
        assert_eq!(ext.io_calls(), 0);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn array_store_moves_extents_through_the_default_loops() {
        let s = crate::ArrayStore::with_page_size(2, 10, 16, 3);
        let pages: Vec<PageId> = (0..4).map(|i| s.allocate(DiskId(i % 2)).unwrap()).collect();
        let data = extent_bytes(4, 16, 200);
        s.write_pages(&pages, &data).unwrap();
        let mut out = vec![1u8; 5];
        s.read_pages(&pages, &mut out).unwrap();
        assert_eq!(out, data);
        let st = s.stats();
        assert_eq!((st.writes, st.reads), (4, 4));
        assert_eq!(st.reads_per_disk, vec![2, 2]);
        // A page written short is padded; errors are the per-page ones.
        s.write(pages[1], Bytes::from_static(b"ab")).unwrap();
        s.read_pages(&pages[1..2], &mut out).unwrap();
        assert_eq!(out, [b"ab".as_slice(), &[0u8; 14]].concat());
        let blank = s.allocate(DiskId(0)).unwrap();
        assert_eq!(
            s.read_pages(&[pages[0], blank], &mut out),
            Err(StorageError::UninitializedPage(blank))
        );
        assert_eq!(
            s.write_pages(&pages, &data[1..]),
            Err(StorageError::ExtentLength { pages: 4, len: 63 })
        );
    }

    #[test]
    fn works_as_tree_backing_store() {
        // The whole R*-tree stack must run unmodified on files. (Uses
        // only PageStore; the tree crate is a dev-dependency elsewhere,
        // so here we just verify multi-page behaviour.)
        let dir = tmpdir("tree");
        let s = FileStore::create(&dir, 4, 1449, 4096, 5).unwrap();
        let mut pages = Vec::new();
        for i in 0..100u64 {
            let p = s.allocate(DiskId((i % 4) as u32)).unwrap();
            let payload = vec![i as u8; (i as usize % 200) + 1];
            s.write(p, Bytes::from(payload.clone())).unwrap();
            pages.push((p, payload));
        }
        for (p, payload) in &pages {
            assert_eq!(s.read(*p).unwrap(), Bytes::from(payload.clone()));
        }
        let per_disk = s.pages_per_disk();
        assert_eq!(per_disk.iter().sum::<usize>(), 100);
        assert!(per_disk.iter().all(|&c| c == 25));
        assert_eq!(s.stats().writes, 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_readers_do_not_contend_or_misread() {
        // Readers across all disks in parallel: every read returns its
        // page's exact bytes and the atomic tallies account for all of
        // them. (Pre-refactor a single global Mutex serialized this.)
        let dir = tmpdir("concurrent");
        let s = FileStore::create(&dir, 4, 100, 256, 6).unwrap();
        let mut pages = Vec::new();
        for i in 0..32u64 {
            let p = s.allocate(DiskId((i % 4) as u32)).unwrap();
            let payload = vec![i as u8; (i as usize % 100) + 1];
            s.write(p, Bytes::from(payload.clone())).unwrap();
            pages.push((p, payload));
        }
        s.reset_stats();
        const THREADS: usize = 8;
        const READS: usize = 200;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                let pages = &pages;
                scope.spawn(move || {
                    for i in 0..READS {
                        let (p, payload) = &pages[(t + i) % pages.len()];
                        assert_eq!(s.read(*p).unwrap(), Bytes::from(payload.clone()));
                    }
                });
            }
        });
        let st = s.stats();
        assert_eq!(st.reads, (THREADS * READS) as u64);
        assert_eq!(st.reads_per_disk.iter().sum::<u64>(), st.reads);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_garbage_superblock() {
        let dir = tmpdir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.sqda"), b"not a superblock").unwrap();
        let err = FileStore::open(&dir).unwrap_err();
        match &err {
            StorageError::Superblock { path, detail } => {
                assert!(path.contains("meta.sqda"), "{err}");
                assert!(detail.contains("magic"), "{err}");
            }
            other => panic!("expected Superblock error, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_unknown_version() {
        let dir = tmpdir("version");
        {
            let s = FileStore::create(&dir, 1, 10, 64, 7).unwrap();
            s.sync().unwrap();
        }
        let path = dir.join("meta.sqda");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99; // the version byte follows the 4-byte magic
        std::fs::write(&path, bytes).unwrap();
        let err = FileStore::open(&dir).unwrap_err();
        match &err {
            StorageError::Superblock { path, detail } => {
                assert!(path.contains("meta.sqda"), "{err}");
                assert!(detail.contains("version 99"), "{err}");
            }
            other => panic!("expected Superblock error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_truncated_superblock() {
        let dir = tmpdir("truncated");
        {
            let s = FileStore::create(&dir, 2, 10, 64, 8).unwrap();
            let p = s.allocate(DiskId(0)).unwrap();
            s.write(p, Bytes::from_static(b"payload")).unwrap();
            s.sync().unwrap();
        }
        let path = dir.join("meta.sqda");
        let full = std::fs::read(&path).unwrap();
        // Every proper prefix must fail with a typed Superblock error —
        // never a panic, never a silently partial table.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = FileStore::open(&dir).unwrap_err();
            match &err {
                StorageError::Superblock { path, .. } => {
                    assert!(path.contains("meta.sqda"), "cut={cut}: {err}");
                }
                other => panic!("cut={cut}: expected Superblock error, got {other:?}"),
            }
        }
        // Restoring the full superblock opens cleanly again.
        std::fs::write(&path, &full).unwrap();
        assert!(FileStore::open(&dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_out_of_range_disk() {
        let dir = tmpdir("baddisk");
        {
            let s = FileStore::create(&dir, 2, 10, 64, 9).unwrap();
            let p = s.allocate(DiskId(1)).unwrap();
            s.write(p, Bytes::from_static(b"x")).unwrap();
            s.sync().unwrap();
        }
        let path = dir.join("meta.sqda");
        let mut bytes = std::fs::read(&path).unwrap();
        // The first slot record starts after the fixed header
        // (4 magic + 1 version + 4 disks + 4 cylinders + 8 page size +
        // 8 seed + 8 slot count = 37 bytes); its disk field follows the
        // tag byte.
        let disk_field = 37 + 1;
        bytes[disk_field..disk_field + 4].copy_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let err = FileStore::open(&dir).unwrap_err();
        match &err {
            StorageError::Superblock { detail, .. } => {
                assert!(detail.contains("disk 7"), "{err}");
            }
            other => panic!("expected Superblock error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_missing_superblock_is_typed() {
        let dir = tmpdir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let err = FileStore::open(&dir).unwrap_err();
        assert!(
            matches!(&err, StorageError::Superblock { .. }),
            "expected Superblock error, got {err:?}"
        );
    }
}

//! Batched I/O submission backends.
//!
//! The execution engines in `sqda-core` fetch index nodes a *batch* at a
//! time: one k-NN activation round produces a set of pages whose reads
//! should proceed in parallel across the disks of the array (the paper's
//! intra-query parallelism). [`IoBackend`] is the seam between that
//! batching logic and how the reads actually happen:
//!
//! * [`InlineBackend`] serves each read synchronously from any
//!   [`PageStore`] — the in-RAM [`ArrayStore`](crate::ArrayStore) path,
//!   where "parallelism" is purely the simulator's affair;
//! * [`ThreadedFileBackend`] drives a [`FileStore`] with one worker
//!   thread per disk, so a whole-batch submission becomes genuinely
//!   concurrent positional reads against the per-disk files — for the
//!   reads the kernel declines to serve without blocking. A page the OS
//!   already holds in memory is read on the submitting thread: waking a
//!   worker for it costs more than the read. So, at times, is a cold
//!   page: the declined non-blocking attempt starts read-ahead, and when
//!   that completes before the kernel re-checks, the read is served
//!   (342 of 2 000 cold reads in one probe on a VM). Which side serves a
//!   cold page follows read-ahead timing, not residency.
//!
//! Completions are delivered over a channel, unordered; each carries its
//! page id, physical placement, wall-clock queue/service timings so the
//! real-clock engine can emit the same observability events as the
//! simulator, and whether the read waited on a disk
//! ([`ReadCompletion::waited`]).

use crate::{Bytes, FileStore, PageId, PageStore, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// One finished page read.
pub struct ReadCompletion {
    /// The page that was read.
    pub page: PageId,
    /// Disk the page lives on.
    pub disk: u32,
    /// Cylinder the page lives on.
    pub cylinder: u32,
    /// The page bytes, or the storage error that stopped the read.
    pub result: Result<Bytes>,
    /// Wall-clock nanoseconds the request waited before its disk's
    /// worker picked it up. Always 0 for a read served on the submitting
    /// thread: every read of an inline backend, and a read of a resident
    /// page on the threaded one.
    pub queue_ns: u64,
    /// Wall-clock nanoseconds the read itself took.
    pub service_ns: u64,
    /// Requests already waiting or in service at this disk when the
    /// read was submitted, this request excluded. Always 0 for a read
    /// served on the submitting thread — it waited in no queue.
    pub queue_depth: u32,
    /// Whether the read waited on a disk: it was handed to its disk's
    /// worker because the kernel declined to serve it without blocking.
    /// `false` for every read served on the submitting thread — all of an
    /// inline backend's, the threaded one's resident pages, the cold
    /// pages whose read-ahead completed before the kernel re-checked
    /// (the submitting thread then did wait on the device), and its
    /// refusals of unknown pages. This says where the read was served,
    /// not how long it took: it repeats from run to run for resident
    /// pages, but for cold ones it follows read-ahead timing. The
    /// real-clock engine sizes CRSS's next activation list by it.
    pub waited: bool,
}

/// Observer of individual disk reads, called from whichever thread
/// serviced the read the moment it finishes: a disk worker, or the
/// thread that submitted the batch when the read was served there.
///
/// This is the seam the live telemetry plane (in `sqda-obs`, which
/// *depends on* this crate) hooks into: the backend stays free of any
/// metrics vocabulary, the observer stays free of I/O. Implementations
/// must be cheap — the call sits on the disk workers' service path and
/// on the query's own.
pub trait ReadObserver: Send + Sync {
    /// One read finished on `disk`: it waited `queue_ns` behind
    /// `queue_depth` earlier requests (both 0 when it was served on the
    /// submitting thread), then took `service_ns` to read.
    fn on_disk_read(&self, disk: u32, queue_ns: u64, service_ns: u64, queue_depth: u32);
}

/// Batched multi-page read submission with asynchronous completion
/// delivery.
///
/// `submit_batch` hands the whole activation round to the backend at
/// once and returns a receiver yielding exactly one [`ReadCompletion`]
/// per submitted page, in whatever order the reads finish.
pub trait IoBackend: Send + Sync {
    /// Submits `pages` for reading; completions arrive on the returned
    /// channel, one per page, unordered.
    fn submit_batch(&self, pages: &[PageId]) -> Receiver<ReadCompletion>;

    /// Short backend name for reports and logs.
    fn name(&self) -> &'static str;

    /// Number of disks in the underlying array.
    fn num_disks(&self) -> u32;
}

fn placement_of<S: PageStore + ?Sized>(store: &S, page: PageId) -> (u32, u32) {
    match store.placement(page) {
        Ok(p) => (p.disk.0, p.cylinder),
        // The read below will surface the real error; placement is only
        // observability metadata here.
        Err(_) => (0, 0),
    }
}

/// Synchronous backend over any [`PageStore`]: reads happen inline on
/// the submitting thread, one after another. This is the `ArrayStore`
/// path — contents live in RAM and concurrency would buy nothing — but
/// it works over any store, including `FileStore`, as a baseline.
pub struct InlineBackend<S: PageStore + ?Sized> {
    store: Arc<S>,
    observer: Option<Arc<dyn ReadObserver>>,
}

impl<S: PageStore + ?Sized> InlineBackend<S> {
    /// Wraps `store` in an inline (synchronous) backend.
    pub fn new(store: Arc<S>) -> Self {
        Self {
            store,
            observer: None,
        }
    }

    /// Wraps `store` with a read observer notified after every read.
    pub fn with_observer(store: Arc<S>, observer: Arc<dyn ReadObserver>) -> Self {
        Self {
            store,
            observer: Some(observer),
        }
    }
}

impl<S: PageStore + ?Sized + Send + Sync> IoBackend for InlineBackend<S> {
    fn submit_batch(&self, pages: &[PageId]) -> Receiver<ReadCompletion> {
        // One slot per page: no send blocks, and a round allocates a
        // buffer of its own size, not the unbounded channel's block.
        let (tx, rx) = std::sync::mpsc::sync_channel(pages.len());
        for &page in pages {
            let (disk, cylinder) = placement_of(self.store.as_ref(), page);
            let start = Instant::now();
            let result = self.store.read(page);
            let service_ns = start.elapsed().as_nanos() as u64;
            if let Some(obs) = &self.observer {
                obs.on_disk_read(disk, 0, service_ns, 0);
            }
            // The receiver outlives us by construction; a dropped
            // receiver just discards the completion.
            let _ = tx.send(ReadCompletion {
                page,
                disk,
                cylinder,
                result,
                queue_ns: 0,
                service_ns,
                queue_depth: 0,
                waited: false,
            });
        }
        rx
    }

    fn name(&self) -> &'static str {
        "inline"
    }

    fn num_disks(&self) -> u32 {
        self.store.num_disks()
    }
}

struct ReadRequest {
    page: PageId,
    cylinder: u32,
    submitted: Instant,
    /// Requests already queued or in service at this disk when this one
    /// was submitted (this request excluded).
    queue_depth: u32,
    /// The batch's channel, a slot per page: the send never blocks.
    reply: SyncSender<ReadCompletion>,
}

/// Real-file backend: one worker thread per disk, each servicing its
/// disk's queue with positional reads, so a whole-batch submission
/// becomes parallel reads across the array.
///
/// Each page is first tried with [`FileStore::read_resident`] on the
/// submitting thread; only a read the kernel declines to serve without
/// blocking goes to its disk's worker. The choice is the kernel's, per
/// read: cold pages keep the per-disk parallelism, except a cold page
/// whose read-ahead, started by the declined attempt, completes before
/// the kernel re-checks — that one is served on the submitting thread,
/// which then did wait on the device.
pub struct ThreadedFileBackend {
    store: Arc<FileStore>,
    observer: Option<Arc<dyn ReadObserver>>,
    /// Reads served on the submitting thread / handed to a worker.
    inline_reads: AtomicU64,
    worker_reads: AtomicU64,
    /// Per-disk request queues; dropping these shuts the workers down.
    queues: Vec<Sender<ReadRequest>>,
    /// Per-disk outstanding-request counts (queued + in service),
    /// incremented at submission and decremented by the worker when the
    /// read finishes — the real-path analogue of the simulator's FCFS
    /// queue-depth accounting.
    depths: Arc<Vec<AtomicU64>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadedFileBackend {
    /// Spawns one worker per disk of `store`.
    pub fn new(store: Arc<FileStore>) -> Self {
        Self::build(store, None)
    }

    /// Spawns one worker per disk, with a read observer notified as
    /// each read finishes, from the thread that served it.
    pub fn with_observer(store: Arc<FileStore>, observer: Arc<dyn ReadObserver>) -> Self {
        Self::build(store, Some(observer))
    }

    fn build(store: Arc<FileStore>, observer: Option<Arc<dyn ReadObserver>>) -> Self {
        let num_disks = store.num_disks();
        let depths: Arc<Vec<AtomicU64>> =
            Arc::new((0..num_disks).map(|_| AtomicU64::new(0)).collect());
        let mut queues = Vec::with_capacity(num_disks as usize);
        let mut workers = Vec::with_capacity(num_disks as usize);
        for disk in 0..num_disks {
            let (tx, rx) = std::sync::mpsc::channel::<ReadRequest>();
            queues.push(tx);
            let store = Arc::clone(&store);
            let depths = Arc::clone(&depths);
            let observer = observer.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sqda-disk{disk}"))
                    .spawn(move || {
                        while let Ok(req) = rx.recv() {
                            let start = Instant::now();
                            let result = store.read(req.page);
                            let done = Instant::now();
                            depths[disk as usize].fetch_sub(1, Ordering::Relaxed);
                            let queue_ns = (start - req.submitted).as_nanos() as u64;
                            let service_ns = (done - start).as_nanos() as u64;
                            if let Some(obs) = &observer {
                                obs.on_disk_read(disk, queue_ns, service_ns, req.queue_depth);
                            }
                            let _ = req.reply.send(ReadCompletion {
                                page: req.page,
                                disk,
                                cylinder: req.cylinder,
                                result,
                                queue_ns,
                                service_ns,
                                queue_depth: req.queue_depth,
                                waited: true,
                            });
                        }
                    })
                    .expect("spawn disk worker"),
            );
        }
        Self {
            store,
            observer,
            inline_reads: AtomicU64::new(0),
            worker_reads: AtomicU64::new(0),
            queues,
            depths,
            workers,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<FileStore> {
        &self.store
    }

    /// Requests currently queued or in service at `disk`.
    pub fn queue_depth(&self, disk: u32) -> u64 {
        self.depths
            .get(disk as usize)
            .map_or(0, |d| d.load(Ordering::Relaxed))
    }

    /// Reads served on the submitting thread so far: every resident page,
    /// and the cold pages whose read-ahead won (see
    /// [`ReadCompletion::waited`]), so on a cold store the count does not
    /// repeat from run to run.
    pub fn inline_reads(&self) -> u64 {
        self.inline_reads.load(Ordering::Relaxed)
    }

    /// Reads handed to a disk worker so far; with
    /// [`inline_reads`](Self::inline_reads), every read submitted.
    pub fn worker_reads(&self) -> u64 {
        self.worker_reads.load(Ordering::Relaxed)
    }
}

impl IoBackend for ThreadedFileBackend {
    fn submit_batch(&self, pages: &[PageId]) -> Receiver<ReadCompletion> {
        // One slot per page, each page sends one completion: no send
        // blocks, the caller's or a worker's.
        let (tx, rx) = std::sync::mpsc::sync_channel(pages.len());
        for &page in pages {
            let submitted = Instant::now();
            let done = match self.store.read_resident(page) {
                Ok((p, Some(data))) => {
                    let service_ns = submitted.elapsed().as_nanos() as u64;
                    self.inline_reads.fetch_add(1, Ordering::Relaxed);
                    if let Some(obs) = &self.observer {
                        obs.on_disk_read(p.disk.0, 0, service_ns, 0);
                    }
                    ReadCompletion {
                        page,
                        disk: p.disk.0,
                        cylinder: p.cylinder,
                        result: Ok(data),
                        queue_ns: 0,
                        service_ns,
                        queue_depth: 0,
                        waited: false,
                    }
                }
                // Not served without blocking, whatever the reason: the
                // disk's worker does the read and types any error. Its
                // queue time counts from submission, attempt included.
                Ok((p, None)) => {
                    self.worker_reads.fetch_add(1, Ordering::Relaxed);
                    let queue_depth =
                        self.depths[p.disk.index()].fetch_add(1, Ordering::Relaxed) as u32;
                    self.queues[p.disk.index()]
                        .send(ReadRequest {
                            page,
                            cylinder: p.cylinder,
                            submitted,
                            queue_depth,
                            reply: tx.clone(),
                        })
                        .expect("disk worker alive while backend alive");
                    continue;
                }
                // Unknown page: complete immediately with the error so
                // the batch still yields one completion per page.
                Err(e) => ReadCompletion {
                    page,
                    disk: 0,
                    cylinder: 0,
                    result: Err(e),
                    queue_ns: 0,
                    service_ns: 0,
                    queue_depth: 0,
                    waited: false,
                },
            };
            // A dropped receiver just discards the completion.
            let _ = tx.send(done);
        }
        rx
    }

    fn name(&self) -> &'static str {
        "threaded-file"
    }

    fn num_disks(&self) -> u32 {
        self.store.num_disks()
    }
}

impl Drop for ThreadedFileBackend {
    fn drop(&mut self) {
        self.queues.clear(); // close the channels so workers exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayStore, DiskId, StorageError};
    use std::path::PathBuf;

    /// Whether the OS page cache holds the first OS page of `store`'s
    /// file for `disk` (where that disk's first page lives): `mincore`
    /// over a read-only mapping, which asks without faulting anything
    /// in, where a declined read would start read-ahead. `None` where
    /// the platform cannot tell.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn first_page_cached(store: &FileStore, disk: u32) -> Option<bool> {
        use std::os::fd::AsRawFd;
        unsafe extern "C" {
            fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
                -> *mut u8;
            fn mincore(addr: *mut u8, len: usize, vec: *mut u8) -> i32;
            fn munmap(addr: *mut u8, len: usize) -> i32;
        }
        let file = std::fs::File::open(store.dir().join(format!("disk{disk:04}.sqda"))).ok()?;
        let mut resident = 0u8;
        // SAFETY: a fresh one-page shared read-only mapping (PROT_READ,
        // MAP_SHARED) placed by the kernel overlaps no Rust object and
        // is never dereferenced; `mincore` writes one byte for that one
        // page into `resident`; the mapping is unmapped before return.
        let rc = unsafe {
            let addr = mmap(std::ptr::null_mut(), 1, 1, 1, file.as_raw_fd(), 0);
            if addr as isize == -1 {
                return None;
            }
            let rc = mincore(addr, 1, &mut resident);
            munmap(addr, 1);
            rc
        };
        (rc == 0).then_some(resident & 1 == 1)
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    fn first_page_cached(_: &FileStore, _: u32) -> Option<bool> {
        None
    }

    fn collect(rx: Receiver<ReadCompletion>, n: usize) -> Vec<ReadCompletion> {
        let out: Vec<_> = rx.into_iter().collect();
        assert_eq!(out.len(), n, "one completion per submitted page");
        out
    }

    #[test]
    fn inline_backend_reads_every_page() {
        let store = Arc::new(ArrayStore::new(4, 100, 1));
        let mut pages = Vec::new();
        for i in 0..16u64 {
            let p = store.allocate(DiskId((i % 4) as u32)).unwrap();
            store.write(p, Bytes::from(vec![i as u8; 10])).unwrap();
            pages.push(p);
        }
        let backend = InlineBackend::new(Arc::clone(&store));
        assert_eq!(backend.num_disks(), 4);
        let out = collect(backend.submit_batch(&pages), pages.len());
        for c in &out {
            let expect = store.read(c.page).unwrap();
            assert_eq!(c.result.as_ref().unwrap(), &expect);
            assert_eq!((c.queue_ns, c.waited), (0, false));
            assert_eq!(c.disk, store.placement(c.page).unwrap().disk.0);
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqda-backend-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn threaded_backend_parallel_batch() {
        let dir = tmpdir("batch");
        let store = Arc::new(FileStore::create(&dir, 4, 100, 256, 2).unwrap());
        let mut pages = Vec::new();
        let mut expected = Vec::new();
        for i in 0..32u64 {
            let p = store.allocate(DiskId((i % 4) as u32)).unwrap();
            let payload = Bytes::from(vec![i as u8; (i as usize % 100) + 1]);
            store.write(p, payload.clone()).unwrap();
            pages.push(p);
            expected.push((p, payload));
        }
        store.reset_stats();
        let backend = ThreadedFileBackend::new(Arc::clone(&store));
        let out = collect(backend.submit_batch(&pages), pages.len());
        for c in &out {
            let (_, want) = expected.iter().find(|(p, _)| *p == c.page).unwrap();
            assert_eq!(c.result.as_ref().unwrap(), want);
        }
        let stats = store.stats();
        assert_eq!(stats.reads, 32);
        assert_eq!(stats.reads_per_disk, vec![8, 8, 8, 8]);
        drop(backend); // workers join cleanly
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threaded_backend_reports_missing_page() {
        let dir = tmpdir("missing");
        let store = Arc::new(FileStore::create(&dir, 2, 10, 64, 3).unwrap());
        let backend = ThreadedFileBackend::new(Arc::clone(&store));
        let out = collect(backend.submit_batch(&[PageId::from_raw(99)]), 1);
        assert!(out[0].result.is_err());
        assert!(!out[0].waited, "refused on the submitting thread");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Where each read was observed: `(disk, name of the thread that
    /// served it)`.
    #[derive(Default)]
    struct ThreadSpy(std::sync::Mutex<Vec<(u32, String)>>);

    impl ReadObserver for ThreadSpy {
        fn on_disk_read(&self, disk: u32, _queue_ns: u64, _service_ns: u64, _queue_depth: u32) {
            let name = std::thread::current().name().unwrap_or("").to_string();
            self.0.lock().unwrap().push((disk, name));
        }
    }

    /// How one half-evicted batch split.
    struct Split {
        /// The filesystem serves NOWAIT reads.
        nowait: bool,
        /// Per disk: its first page was out of the page cache at
        /// submission.
        cold: Vec<bool>,
        /// Per disk: some read of it was served by its worker.
        handed_off: Vec<bool>,
        /// Reads served on the caller / by a worker.
        inline: u64,
        worker: u64,
    }

    /// Disks 0 and 1 resident, disks 2 and 3 dropped from the OS cache:
    /// one batch over all of them, in `dir`. What a caller sees must not
    /// depend on the split, and that is asserted here; the split itself
    /// is returned.
    fn half_evicted_batch(dir: &std::path::Path) -> Split {
        let store = Arc::new(FileStore::create(dir, 4, 100, 256, 2).unwrap());
        let mut pages = Vec::new();
        for i in 0..32u64 {
            let p = store.allocate(DiskId((i % 4) as u32)).unwrap();
            store
                .write(p, Bytes::from(vec![i as u8; (i as usize % 100) + 1]))
                .unwrap();
            pages.push(p);
        }
        // Eviction is advisory: a RAM-backed filesystem keeps every page
        // and a loaded box may keep some, so it is repeated until the
        // page cache says disks 2 and 3 went cold, or given up. Asking
        // starts no read-ahead (a declined read would), and nothing
        // touches disk 2's or 3's file again before the batch.
        let cold = |d: usize| first_page_cached(&store, d as u32) == Some(false);
        for _ in 0..10 {
            store.evict_from_os_cache().unwrap();
            if cold(2) && cold(3) {
                break;
            }
        }
        for p in pages.iter().filter(|p| p.as_raw() % 4 < 2) {
            store.read(*p).unwrap(); // blocking read: resident again
        }
        // A resident page read with NOWAIT latches it off where the
        // filesystem refuses it.
        store.read_resident(pages[0]).unwrap();
        let cold: Vec<bool> = (0..4).map(cold).collect();
        store.reset_stats();

        let spy = Arc::new(ThreadSpy::default());
        let backend =
            ThreadedFileBackend::with_observer(Arc::clone(&store), Arc::<ThreadSpy>::clone(&spy));
        let out = collect(backend.submit_batch(&pages), pages.len());
        let mut seen: Vec<_> = out.iter().map(|c| c.page).collect();
        seen.sort();
        assert_eq!(seen, pages, "exactly one completion per page");
        let stats = store.stats();
        assert_eq!(stats.reads_per_disk, vec![8, 8, 8, 8]);
        let (inline, worker) = (backend.inline_reads(), backend.worker_reads());
        assert_eq!(
            inline + worker,
            stats.reads,
            "a read is tallied once, whichever side served it"
        );
        let waited = out.iter().filter(|c| c.waited).count() as u64;
        assert_eq!(waited, worker, "exactly the worker reads waited on a disk");
        for disk in 0..4 {
            assert_eq!(backend.queue_depth(disk), 0);
        }
        for c in &out {
            assert_eq!(c.result.as_ref().unwrap(), &store.read(c.page).unwrap());
            assert_eq!(c.disk, store.placement(c.page).unwrap().disk.0);
        }
        let spied = spy.0.lock().unwrap();
        assert_eq!(spied.len(), 32);
        let on_worker = |(disk, name): &(u32, String)| *name == format!("sqda-disk{disk}");
        let handed_off = (0..4)
            .map(|d| spied.iter().any(|r| r.0 == d && on_worker(r)))
            .collect();
        let nowait = store.nowait_supported();
        drop(spied);
        drop(backend);
        std::fs::remove_dir_all(dir).ok();
        Split {
            nowait,
            cold,
            handed_off,
            inline,
            worker,
        }
    }

    #[test]
    fn threaded_backend_splits_a_half_evicted_batch() {
        // Which side served a read is asserted from each disk file's
        // residency at submission. The kernel itself can serve a NOWAIT
        // read of a page the page cache did not hold: the read starts
        // read-ahead, and when that completes before the kernel checks
        // the page again, the read succeeds (on a virtualised ext4 disk,
        // about one such read in six, more under load). Disk 2's first
        // page then stays with the caller through no choice of the
        // backend's, so that batch is run again on a fresh store, after
        // a growing pause; the fifth run must split as asserted.
        for run in 1..=5 {
            let Split {
                nowait,
                cold,
                handed_off,
                inline,
                worker,
            } = half_evicted_batch(&tmpdir(&format!("split{run}")));
            if !nowait {
                assert_eq!(
                    (inline, worker),
                    (0, 32),
                    "no NOWAIT: every read to a worker"
                );
                return;
            }
            let raced = cold[2] && !handed_off[2];
            if raced && run < 5 {
                // Load comes in bursts: back off before the next run.
                std::thread::sleep(std::time::Duration::from_millis(20 * run));
                continue;
            }
            if cold[2] {
                // The first cold page of the batch (disk 2's) left the
                // caller.
                assert!(handed_off[2], "{handed_off:?}");
                assert!(
                    inline >= 16 && worker >= 1,
                    "inline {inline}, worker {worker}"
                );
            } else if !cold[3] {
                assert_eq!(
                    (inline, worker),
                    (32, 0),
                    "nothing evicted: nothing to hand off"
                );
            }
            // A resident file (disks 0 and 1, read back) never left the
            // caller.
            assert!(!cold[0] && !cold[1], "disks 0 and 1 were read back");
            for disk in 0..4 {
                assert!(
                    cold[disk] || !handed_off[disk],
                    "disk {disk}: {handed_off:?}"
                );
            }
            return;
        }
    }

    #[test]
    fn threaded_backend_types_errors_on_the_worker_path() {
        // A never-written page and a page whose disk file lost its tail:
        // the inline attempt declines both (no length / short count) and
        // the worker's `store.read` types them, as before.
        let dir = tmpdir("typed");
        let store = Arc::new(FileStore::create(&dir, 2, 10, 64, 3).unwrap());
        let blank = store.allocate(DiskId(0)).unwrap();
        let cut = store.allocate(DiskId(1)).unwrap();
        store.write(cut, Bytes::from(vec![9u8; 64])).unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("disk0001.sqda"))
            .unwrap();
        file.set_len(10).unwrap();
        let backend = ThreadedFileBackend::new(Arc::clone(&store));
        let out = collect(backend.submit_batch(&[blank, cut]), 2);
        for c in &out {
            assert!(c.waited, "a worker read waited on its disk");
            match (c.page == blank, c.result.as_ref().unwrap_err()) {
                (true, StorageError::UninitializedPage(p)) => assert_eq!(*p, blank),
                (false, StorageError::CorruptPage { page, detail }) => {
                    assert_eq!(*page, cut);
                    assert!(detail.contains("file I/O"), "{detail}");
                }
                (_, other) => panic!("page {:?}: unexpected {other:?}", c.page),
            }
        }
        assert_eq!((backend.inline_reads(), backend.worker_reads()), (0, 2));
        assert_eq!(store.stats().reads, 0, "a failed read is not tallied");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[derive(Default)]
    struct CountingObserver {
        reads: AtomicU64,
        service_ns: AtomicU64,
        max_depth: AtomicU64,
        /// Held by a test to park every thread that reports a read.
        hold: std::sync::Mutex<()>,
    }

    impl ReadObserver for CountingObserver {
        fn on_disk_read(&self, _disk: u32, _queue_ns: u64, service_ns: u64, queue_depth: u32) {
            drop(self.hold.lock().unwrap());
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.service_ns.fetch_add(service_ns, Ordering::Relaxed);
            self.max_depth
                .fetch_max(queue_depth as u64, Ordering::Relaxed);
        }
    }

    #[test]
    fn threaded_backend_notifies_observer_and_tracks_depth() {
        let dir = tmpdir("observer");
        let store = Arc::new(FileStore::create(&dir, 2, 100, 256, 7).unwrap());
        let mut pages = Vec::new();
        for i in 0..24u64 {
            let p = store.allocate(DiskId((i % 2) as u32)).unwrap();
            store.write(p, Bytes::from(vec![i as u8; 32])).unwrap();
            pages.push(p);
        }
        let obs = Arc::new(CountingObserver::default());
        let backend = ThreadedFileBackend::with_observer(
            Arc::clone(&store),
            Arc::<CountingObserver>::clone(&obs),
        );
        let out = collect(backend.submit_batch(&pages), pages.len());
        assert!(out.iter().all(|c| c.result.is_ok()));
        assert_eq!(obs.reads.load(Ordering::Relaxed), 24);
        assert_eq!(backend.inline_reads() + backend.worker_reads(), 24);

        // Queues form behind reads that go to the workers, and a
        // never-written page always does, on any filesystem. 12 per disk
        // in one burst, each worker parked in the observer after its
        // first read: at most one request per disk has left the queue
        // when the last is submitted behind the other ten.
        let blanks: Vec<_> = (0..24)
            .map(|i| store.allocate(DiskId(i % 2)).unwrap())
            .collect();
        let handed_over = backend.worker_reads();
        let hold = obs.hold.lock().unwrap();
        let rx = backend.submit_batch(&blanks);
        drop(hold);
        let out = collect(rx, blanks.len());
        assert!(out
            .iter()
            .all(|c| matches!(c.result, Err(StorageError::UninitializedPage(_)))));
        assert_eq!(backend.worker_reads() - handed_over, 24);
        assert_eq!(obs.reads.load(Ordering::Relaxed), 48);
        assert!(obs.max_depth.load(Ordering::Relaxed) >= 10);
        assert!(out.iter().map(|c| c.queue_depth).max() >= Some(10));
        // All submissions drained: outstanding counts return to zero.
        assert_eq!(backend.queue_depth(0), 0);
        assert_eq!(backend.queue_depth(1), 0);
        assert_eq!(backend.queue_depth(99), 0);
        drop(backend);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inline_backend_notifies_observer() {
        let store = Arc::new(ArrayStore::new(2, 50, 1));
        let p = store.allocate(DiskId(1)).unwrap();
        store.write(p, Bytes::from(vec![1u8; 8])).unwrap();
        let obs = Arc::new(CountingObserver::default());
        let backend = InlineBackend::with_observer(
            Arc::clone(&store) as Arc<ArrayStore>,
            Arc::<CountingObserver>::clone(&obs),
        );
        let out = collect(backend.submit_batch(&[p]), 1);
        assert!(out[0].result.is_ok());
        assert_eq!(out[0].queue_depth, 0);
        assert_eq!(obs.reads.load(Ordering::Relaxed), 1);
        assert_eq!(obs.max_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn threaded_backend_concurrent_submitters() {
        let dir = tmpdir("many");
        let store = Arc::new(FileStore::create(&dir, 4, 100, 128, 4).unwrap());
        let mut pages = Vec::new();
        for i in 0..8u64 {
            let p = store.allocate(DiskId((i % 4) as u32)).unwrap();
            store.write(p, Bytes::from(vec![i as u8; 16])).unwrap();
            pages.push(p);
        }
        let backend = Arc::new(ThreadedFileBackend::new(Arc::clone(&store)));
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let backend = Arc::clone(&backend);
                let pages = &pages;
                scope.spawn(move || {
                    for _ in 0..20 {
                        let out: Vec<_> = backend.submit_batch(pages).into_iter().collect();
                        assert_eq!(out.len(), pages.len());
                        assert!(out.iter().all(|c| c.result.is_ok()));
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}

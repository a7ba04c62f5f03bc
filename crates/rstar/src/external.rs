//! Out-of-core (external-memory) bulk build.
//!
//! [`RStarTree::bulk_load`] holds the whole dataset in RAM, sorts it,
//! and packs leaves — fine at the paper's scales (tens of thousands of
//! objects), hopeless at the 10M+ scales where declustering over a disk
//! array actually pays off. This module builds an STR-packed tree while
//! never holding more than `O(run_capacity × jobs)` points in memory:
//!
//! 1. **Run formation** — a [`PointSource`] *visits* the builder with
//!    each point's coordinates as a borrowed slice (no per-point
//!    allocation, and a source that fails mid-pass returns its own error
//!    through the build as [`RStarError::Source`]). Points are validated,
//!    tagged with a sort key (the STR axis coordinate mapped to its
//!    order-preserving `u64` image) and a sequence number, and accumulate
//!    into bounded runs. Each run is sorted in RAM (`--jobs` runs sort in
//!    parallel) and spilled as fixed-size records through a
//!    caller-provided *scratch* page store.
//! 2. **K-way merge** — runs merge up to `merge_fanin` at a time on a
//!    `(key, seq)` min-heap; because `seq` is the record's position in
//!    the previous order, the merge reproduces a *stable* sort exactly.
//!    Merges are written back to scratch only while more than
//!    `merge_fanin` runs remain, and only as many runs as it takes to
//!    get down to that; the last merge is a *stream* its consumer pulls
//!    records from, so the fully sorted order never touches a disk.
//!    Consumed scratch extents are freed (and recycled) as they are read.
//! 3. **Tiling** — STR cuts that stream at the slab boundaries the
//!    in-memory tiler would use ([`crate::bulk`]'s exact integer
//!    ceil-root). A slab that fits one run is collected off the stream
//!    and finished by the in-memory tiler; a larger one is spilled (with
//!    `seq` retagged to its position) and sorted externally on the next
//!    axis, the outer stream paused where the slab ended. On the last
//!    axis the stream is cut straight into leaves. Leaves are written
//!    through the same [`LevelWriter`] as the in-memory builder; directory
//!    levels (a few hundred thousand entries even at 10M objects) are
//!    built in memory.
//!
//! A 2-d input whose slabs fit a run is therefore written to scratch
//! once at run formation and then only where a merge is written back —
//! at 123 runs and a fan-in of 64 that is one merge of 60 runs, half
//! the data — and every step is `O(n log n)` or better: the build is
//! linear in `n` to within the merge's `log`.
//!
//! Pages are placed by *sibling striping*: each page is declustered only
//! against the already-placed members of its prospective parent group
//! (consecutive groups of the directory fan-out), so one parent's
//! children land on distinct disks and one activation round reads them
//! in parallel. Because runs spill through a **separate** scratch store,
//! the destination store sees the same allocation/write sequence whether
//! or not the build spilled: an input of at most `run_capacity` points
//! goes through the in-memory tiler, and any larger one writes the very
//! same pages.
//!
//! Scratch record format: `[key: u64][seq: u64][id: u64][coords: dim × f64]`
//! (`24 + 8·dim` bytes), little-endian, packed whole into scratch pages
//! (no record straddles a page; the tail of a page is zero). On error,
//! not-yet-freed scratch pages are simply abandoned — the scratch store
//! is throwaway by contract.
//!
//! Scratch I/O goes by **extents** of [`EXTENT_PAGES`] pages through
//! [`PageStore::write_pages`] / [`PageStore::read_pages`]: a run's writer
//! fills one reused buffer and hands it over whole, its reader refills one
//! reused buffer, and a store that keeps neighbouring slots together
//! (`FileStore`) moves each extent with one positional call instead of
//! eight. Scratch has no declustering constraint, so an extent's pages
//! are all allocated on one disk — fresh slots are consecutive there —
//! and it is the *extents* that round-robin over the scratch disks; an
//! extent is freed last page first so that last-freed-first slot recycling
//! hands the next extent the same slots in ascending order. Why 8: 8, 16
//! and 32 pages measured the same build time, and the final merge keeps
//! `merge_fanin` extents resident, so the smallest was taken. A store
//! that implements only the required `PageStore` methods gets the trait's
//! per-page loops and the same pages, placements and
//! [`ExternalBuildReport`] — the report counts pages as they are filled
//! and consumed, not as they are allocated and freed.

use crate::bulk::{
    chunk_balanced, str_slabs, str_tile, validate_coords, LevelWriter, PlacementMode,
};
use crate::entry::{InternalEntry, LeafEntry, ObjectId};
use crate::node::Node;
use crate::tree::{RStarError, Result};
use crate::RStarTree;
use crate::{Declusterer, PackingOrder, RStarConfig};
use sqda_geom::Point;
use sqda_storage::{DiskId, PageId, PageStore};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;
use std::sync::Arc;

/// A stream of `(coordinates, object id)` pairs.
///
/// A build makes one pass over it; [`PointSource::visit`] must present
/// the same sequence every time it is called, so that one source can
/// feed several builds.
pub trait PointSource {
    /// Number of points every pass yields.
    fn len(&self) -> u64;
    /// Dimensionality of the points.
    fn dim(&self) -> usize;
    /// One pass: calls `f` with each point's coordinates (borrowed for
    /// the call only) and id, in order, stopping at `f`'s first error and
    /// returning it. A source that fails itself returns its own error —
    /// [`RStarError::Source`] carries any error type through the build.
    fn visit(&self, f: &mut dyn FnMut(&[f64], u64) -> Result<()>) -> Result<()>;
    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`PointSource`] over an in-memory slice (testing and small inputs).
pub struct SliceSource<'a> {
    points: &'a [(Point, u64)],
}

impl<'a> SliceSource<'a> {
    /// Wraps a slice of `(point, id)` pairs.
    pub fn new(points: &'a [(Point, u64)]) -> Self {
        Self { points }
    }
}

impl PointSource for SliceSource<'_> {
    fn len(&self) -> u64 {
        self.points.len() as u64
    }

    fn dim(&self) -> usize {
        self.points.first().map_or(0, |(p, _)| p.dim())
    }

    fn visit(&self, f: &mut dyn FnMut(&[f64], u64) -> Result<()>) -> Result<()> {
        self.points
            .iter()
            .try_for_each(|(p, id)| f(p.coords(), *id))
    }
}

/// A [`PointSource`] over a closure that restarts a generator stream —
/// the bridge from `sqda-datasets`' streaming generators, which never
/// materialize the dataset.
pub struct FnSource<F> {
    len: u64,
    dim: usize,
    make: F,
}

impl<F> FnSource<F> {
    /// Wraps `make`, which must produce the same `len`-point sequence
    /// of `dim`-dimensional points on every call.
    pub fn new(len: u64, dim: usize, make: F) -> Self {
        Self { len, dim, make }
    }
}

impl<F, I> PointSource for FnSource<F>
where
    F: Fn() -> I,
    I: Iterator<Item = (Point, u64)>,
{
    fn len(&self) -> u64 {
        self.len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn visit(&self, f: &mut dyn FnMut(&[f64], u64) -> Result<()>) -> Result<()> {
        (self.make)().try_for_each(|(p, id)| f(p.coords(), id))
    }
}

/// Tuning knobs for [`RStarTree::bulk_load_external_stats`].
#[derive(Debug, Clone)]
pub struct ExternalBuildOptions {
    /// Maximum points per sort run — the unit of resident memory.
    /// Clamped up to twice the leaf capacity so every slab can bottom
    /// out in the in-memory tiler.
    pub run_capacity: usize,
    /// Maximum runs merged per pass (clamped to ≥ 2); more passes
    /// handle any run count.
    pub merge_fanin: usize,
    /// Sort-worker threads. Each holds one run, so resident memory is
    /// `O(run_capacity × jobs)`.
    pub jobs: usize,
}

impl Default for ExternalBuildOptions {
    fn default() -> Self {
        Self {
            run_capacity: 1 << 18,
            merge_fanin: 64,
            jobs: 1,
        }
    }
}

/// What an external build did: how much spilled and how hard the merge
/// worked. All fields are deterministic for a fixed input and options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExternalBuildReport {
    /// Sort runs formed across all external sorts.
    pub runs: u64,
    /// Merge passes, summed over all external sorts (0 when nothing
    /// spilled): per sort, the most merges any one record went through.
    /// That counts the sort's final merge — of at most `merge_fanin`
    /// runs, streamed to the tiler instead of written back — and, below
    /// it, merges that were written back but took in only as many runs
    /// as needed, so a "pass" may touch part of the data.
    pub merge_passes: u64,
    /// Scratch pages written in total: run formation, each merge that
    /// had to be written back, and slabs too big for one run.
    pub spilled_pages: u64,
    /// High-water mark of pages spilled and not yet read back: what the
    /// scratch store must be able to hold (it holds a few fewer while
    /// pages wait in an extent buffer at either end).
    pub peak_scratch_pages: u64,
}

impl<S: PageStore> RStarTree<S> {
    /// Builds an STR-packed, sibling-striped tree by streaming `source`
    /// through an external-memory sort, holding at most
    /// `O(run_capacity × jobs)` points in RAM; sort runs spill through the
    /// separate `scratch` store. Returns the tree and the build's
    /// [`ExternalBuildReport`]. See the [module docs](self) for the
    /// pipeline and why spilling never changes the pages written.
    ///
    /// # Errors
    ///
    /// As [`RStarTree::bulk_load`], plus [`RStarError::InvalidBuild`] when
    /// the source yields a different number of points than
    /// [`PointSource::len`] promises or the scratch page size cannot hold
    /// a single record.
    pub fn bulk_load_external_stats<T: PageStore>(
        store: Arc<S>,
        config: RStarConfig,
        declusterer: Box<dyn Declusterer>,
        source: &dyn PointSource,
        scratch: &Arc<T>,
        opts: &ExternalBuildOptions,
    ) -> Result<(Self, ExternalBuildReport)> {
        let dim = config.dim;
        let mut tree = Self::create(store, config, declusterer)?;
        let n = source.len() as usize;
        if n == 0 {
            return Ok((tree, ExternalBuildReport::default()));
        }
        let leaf_cap = tree.config.max_leaf_entries;
        let run_cap = opts.run_capacity.max(2 * leaf_cap);
        if n <= run_cap {
            // Small inputs take the in-memory path outright: same tree,
            // no scratch traffic.
            let mut entries = Vec::with_capacity(n);
            visit_validated(source, dim, n, &mut |coords, id| {
                entries.push(LeafEntry::new(Point::new(coords.to_vec()), ObjectId(id)));
                Ok(())
            })?;
            tree.bulk_build_from_entries(entries, PackingOrder::Str, PlacementMode::SiblingStripe)?;
            return Ok((tree, ExternalBuildReport::default()));
        }

        let rec_size = 24 + dim * 8;
        let per_page = scratch.page_size() / rec_size;
        if per_page == 0 {
            return Err(RStarError::InvalidBuild(format!(
                "scratch page size {} cannot hold a {rec_size}-byte record",
                scratch.page_size()
            )));
        }
        let mut ctx = BuildCtx {
            scratch,
            dim,
            rec_size,
            per_page,
            run_cap,
            fanin: opts.merge_fanin.max(2),
            jobs: opts.jobs.max(1),
            leaf_cap,
            min_leaf: tree.config.min_entries(true),
            next_disk: 0,
            live_pages: 0,
            report: ExternalBuildReport::default(),
        };

        let mut writer = LevelWriter::new(&tree, PlacementMode::SiblingStripe);
        let mut parents: Vec<InternalEntry> = Vec::new();
        str_build(
            &mut ctx,
            &mut writer,
            &mut parents,
            Input::Source(source),
            n,
            0,
        )?;
        drop(writer);

        let report = ctx.report.clone();
        if parents.len() == 1 {
            tree.install_bulk_root(parents[0].child, 1, n as u64)?;
        } else {
            tree.finish_bulk_from_entries(
                parents,
                1,
                PackingOrder::Str,
                n as u64,
                PlacementMode::SiblingStripe,
            )?;
        }
        Ok((tree, report))
    }
}

/// Shared state of one external build.
struct BuildCtx<'a, T: PageStore> {
    scratch: &'a Arc<T>,
    dim: usize,
    rec_size: usize,
    per_page: usize,
    run_cap: usize,
    fanin: usize,
    jobs: usize,
    leaf_cap: usize,
    min_leaf: usize,
    /// The disk the next scratch extent goes to.
    next_disk: u32,
    /// Pages spilled and not yet read back.
    live_pages: u64,
    report: ExternalBuildReport,
}

/// Input to one external sort: the original source (first axis) or a
/// spilled slab from the previous axis.
enum Input<'a> {
    Source(&'a dyn PointSource),
    Spill(Spill),
}

/// A spilled record stream: `n` records packed into scratch pages in
/// order.
struct Spill {
    pages: Vec<PageId>,
    n: usize,
    /// Merges its records have been written back by (0 for a fresh run).
    depth: u64,
}

/// Maps a float to a `u64` whose unsigned order equals IEEE-754
/// `totalOrder` (what `f64::total_cmp` implements, hence the in-memory
/// stable sort): the sort key of a record on the current axis.
fn f64_order_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 0x8000_0000_0000_0000
    }
}

/// One in-RAM record during streaming; `coords` is reused across reads.
#[derive(Default, Clone)]
struct Rec {
    key: u64,
    seq: u64,
    id: u64,
    coords: Vec<f64>,
}

/// A sorted-run buffer: record heads over a flat coordinate arena.
#[derive(Default)]
struct RunBuf {
    heads: Vec<Head>,
    coords: Vec<f64>,
}

#[derive(Clone, Copy)]
struct Head {
    key: u64,
    seq: u64,
    id: u64,
    idx: u32,
}

impl RunBuf {
    /// Room for a whole run up front: growing a buffer of this size by
    /// doubling copies it, and holds old and new copy at once.
    fn with_capacity(records: usize, dim: usize) -> Self {
        Self {
            heads: Vec::with_capacity(records),
            coords: Vec::with_capacity(records * dim),
        }
    }

    fn push(&mut self, key: u64, seq: u64, id: u64, coords: &[f64]) {
        let idx = self.heads.len() as u32;
        self.heads.push(Head { key, seq, id, idx });
        self.coords.extend_from_slice(coords);
    }
}

/// Pages per scratch extent — the unit a run is written and read back
/// in. 8, 16 and 32 build in the same time; the final merge holds
/// `merge_fanin` extents at once, so the smallest of them it is.
const EXTENT_PAGES: usize = 8;

/// Packs records into scratch pages — no record straddles a page — and
/// writes them an extent at a time from one reused buffer.
#[derive(Default)]
struct SpillWriter {
    /// The extent being filled, pages at a stride of the page size.
    buf: Vec<u8>,
    /// Records in the page being filled.
    in_page: usize,
    pages: Vec<PageId>,
    n: usize,
}

impl SpillWriter {
    fn new<T: PageStore>(ctx: &BuildCtx<'_, T>) -> Self {
        Self {
            buf: Vec::with_capacity(EXTENT_PAGES * ctx.scratch.page_size()),
            ..Self::default()
        }
    }

    fn push<T: PageStore>(
        &mut self,
        ctx: &mut BuildCtx<'_, T>,
        key: u64,
        seq: u64,
        id: u64,
        coords: &[f64],
    ) -> Result<()> {
        self.buf.extend_from_slice(&key.to_le_bytes());
        self.buf.extend_from_slice(&seq.to_le_bytes());
        self.buf.extend_from_slice(&id.to_le_bytes());
        for &c in coords {
            self.buf.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        self.n += 1;
        self.in_page += 1;
        if self.in_page == ctx.per_page {
            self.end_page(ctx)?;
        }
        Ok(())
    }

    /// Closes the page being filled — zero pad to the stride — and
    /// writes the extent out once it is full.
    fn end_page<T: PageStore>(&mut self, ctx: &mut BuildCtx<'_, T>) -> Result<()> {
        let stride = ctx.scratch.page_size();
        self.in_page = 0;
        self.buf.resize(self.buf.len().next_multiple_of(stride), 0);
        ctx.report.spilled_pages += 1;
        ctx.live_pages += 1;
        ctx.report.peak_scratch_pages = ctx.report.peak_scratch_pages.max(ctx.live_pages);
        if self.buf.len() == EXTENT_PAGES * stride {
            self.flush(ctx)?;
        }
        Ok(())
    }

    /// Writes the buffered pages as one extent: all on one disk, so fresh
    /// slots are neighbours in its file, and extents round-robin over the
    /// scratch disks so spill bandwidth still spreads over the array.
    fn flush<T: PageStore>(&mut self, ctx: &mut BuildCtx<'_, T>) -> Result<()> {
        let disk = DiskId(ctx.next_disk % ctx.scratch.num_disks());
        ctx.next_disk = ctx.next_disk.wrapping_add(1);
        let first = self.pages.len();
        for _ in 0..self.buf.len() / ctx.scratch.page_size() {
            self.pages.push(ctx.scratch.allocate(disk)?);
        }
        ctx.scratch.write_pages(&self.pages[first..], &self.buf)?;
        self.buf.clear();
        Ok(())
    }

    fn finish<T: PageStore>(mut self, ctx: &mut BuildCtx<'_, T>) -> Result<Spill> {
        if self.in_page > 0 {
            self.end_page(ctx)?;
        }
        if !self.buf.is_empty() {
            self.flush(ctx)?;
        }
        Ok(Spill {
            pages: self.pages,
            n: self.n,
            depth: 0,
        })
    }
}

/// Streams a [`Spill`]'s records back through one reused extent buffer,
/// freeing each extent's scratch pages as it is read.
#[derive(Default)]
struct SpillReader {
    pages: Vec<PageId>,
    /// Pages read so far.
    read: usize,
    buf: Vec<u8>,
    off: usize,
    in_page: usize,
    remaining: usize,
}

impl SpillReader {
    fn new(spill: Spill) -> Self {
        Self {
            pages: spill.pages,
            remaining: spill.n,
            ..Self::default()
        }
    }

    /// Reads the next record into `rec`; returns `false` at the end.
    fn next<T: PageStore>(&mut self, ctx: &mut BuildCtx<'_, T>, rec: &mut Rec) -> Result<bool> {
        if self.remaining == 0 {
            return Ok(false);
        }
        if self.in_page == 0 {
            let stride = ctx.scratch.page_size();
            self.off = self.off.next_multiple_of(stride);
            if self.off == self.buf.len() {
                let end = (self.read + EXTENT_PAGES).min(self.pages.len());
                let extent = &self.pages[self.read..end];
                ctx.scratch.read_pages(extent, &mut self.buf)?;
                if extent.is_empty() || self.buf.len() != extent.len() * stride {
                    return Err(RStarError::InvalidBuild(
                        "spill run shorter than its record count".into(),
                    ));
                }
                // Last page first: a store that recycles slots
                // last-freed-first hands them to the next extent in
                // ascending order, neighbours again.
                for &page in extent.iter().rev() {
                    ctx.scratch.free(page)?;
                }
                self.read = end;
                self.off = 0;
            }
            ctx.live_pages -= 1;
            self.in_page = self.remaining.min(ctx.per_page);
        }
        let b = &self.buf[self.off..self.off + ctx.rec_size];
        let word = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("sized slice"));
        rec.key = word(0);
        rec.seq = word(8);
        rec.id = word(16);
        rec.coords.clear();
        rec.coords
            .extend((0..ctx.dim).map(|d| f64::from_bits(word(24 + d * 8))));
        self.off += ctx.rec_size;
        self.in_page -= 1;
        self.remaining -= 1;
        Ok(true)
    }
}

fn length_mismatch(expected: usize, got: usize) -> RStarError {
    RStarError::InvalidBuild(format!(
        "point source yielded {got} points but promised {expected}"
    ))
}

/// One validated pass over `source`, which must yield exactly `n` points.
fn visit_validated(
    source: &dyn PointSource,
    dim: usize,
    n: usize,
    f: &mut dyn FnMut(&[f64], u64) -> Result<()>,
) -> Result<()> {
    let mut seen = 0usize;
    source.visit(&mut |coords, id| {
        validate_coords(coords, dim)?;
        seen += 1;
        if seen > n {
            return Err(length_mismatch(n, seen));
        }
        f(coords, id)
    })?;
    if seen != n {
        return Err(length_mismatch(n, seen));
    }
    Ok(())
}

/// Run formation: streams `input` into bounded buffers keyed on `axis`,
/// sorts each by `(key, seq)` (`jobs` at a time) and spills it as one run.
fn form_runs<T: PageStore>(
    ctx: &mut BuildCtx<'_, T>,
    input: Input<'_>,
    n: usize,
    axis: usize,
) -> Result<Vec<Spill>> {
    let mut runs: Vec<Spill> = Vec::new();
    let mut pending: Vec<RunBuf> = Vec::new();
    // Spilled buffers, emptied: one allocation per sort worker serves
    // every run.
    let mut spare: Vec<RunBuf> = Vec::new();
    let dim = ctx.dim;
    let run_len = ctx.run_cap.min(n);
    let mut cur = RunBuf::with_capacity(run_len, dim);
    let flush_pending = |ctx: &mut BuildCtx<'_, T>,
                         pending: &mut Vec<RunBuf>,
                         spare: &mut Vec<RunBuf>,
                         runs: &mut Vec<Spill>|
     -> Result<()> {
        sort_bufs(pending, ctx.jobs);
        for mut buf in pending.drain(..) {
            let mut w = SpillWriter::new(ctx);
            for h in &buf.heads {
                let c = &buf.coords[h.idx as usize * dim..(h.idx as usize + 1) * dim];
                w.push(ctx, h.key, h.seq, h.id, c)?;
            }
            runs.push(w.finish(ctx)?);
            ctx.report.runs += 1;
            buf.heads.clear();
            buf.coords.clear();
            spare.push(buf);
        }
        Ok(())
    };
    let mut add = |ctx: &mut BuildCtx<'_, T>, seq: u64, id: u64, coords: &[f64]| -> Result<()> {
        cur.push(f64_order_key(coords[axis]), seq, id, coords);
        if cur.heads.len() == ctx.run_cap {
            pending.push(std::mem::take(&mut cur));
            if pending.len() == ctx.jobs {
                flush_pending(ctx, &mut pending, &mut spare, &mut runs)?;
            }
            cur = spare
                .pop()
                .unwrap_or_else(|| RunBuf::with_capacity(run_len, dim));
        }
        Ok(())
    };
    match input {
        Input::Source(source) => {
            let mut seq = 0u64..;
            visit_validated(source, dim, n, &mut |coords, id| {
                add(ctx, seq.next().expect("unbounded"), id, coords)
            })?;
        }
        Input::Spill(spill) => {
            let mut r = SpillReader::new(spill);
            let mut rec = Rec::default();
            while r.next(ctx, &mut rec)? {
                add(ctx, rec.seq, rec.id, &rec.coords)?;
            }
        }
    }
    if !cur.heads.is_empty() {
        pending.push(cur);
    }
    flush_pending(ctx, &mut pending, &mut spare, &mut runs)?;
    Ok(runs)
}

/// External merge sort of `input` by `(axis key, seq)`: bounded sorted runs,
/// k-way merges written back until at most `merge_fanin` runs are left,
/// and the final merge of those as a stream the caller pulls from — the
/// sorted order is never written out whole.
fn external_sort<T: PageStore>(
    ctx: &mut BuildCtx<'_, T>,
    input: Input<'_>,
    n: usize,
    axis: usize,
) -> Result<MergeStream> {
    let mut runs = form_runs(ctx, input, n, axis)?;
    // Written back only until one heap can hold every run, oldest runs
    // first and no more of them than that takes; the last merge is the
    // returned stream itself. Which runs meet in which merge is free:
    // `(key, seq)` is unique, so every grouping yields the same order.
    while runs.len() > ctx.fanin {
        let take = (runs.len() - ctx.fanin + 1).min(ctx.fanin);
        let group: Vec<Spill> = runs.drain(..take).collect();
        let total = group.iter().map(|run| run.n).sum();
        let depth = group.iter().map(|run| run.depth).max().unwrap_or(0) + 1;
        let mut stream = MergeStream::new(ctx, group)?;
        let mut w = SpillWriter::new(ctx);
        for _ in 0..total {
            let rec = stream.take(ctx)?;
            w.push(ctx, rec.key, rec.seq, rec.id, &rec.coords)?;
        }
        runs.push(Spill {
            depth,
            ..w.finish(ctx)?
        });
    }
    let written_back = runs.iter().map(|run| run.depth).max().unwrap_or(0);
    ctx.report.merge_passes += written_back + u64::from(runs.len() > 1);
    MergeStream::new(ctx, runs)
}

/// Sorts each pending run buffer by `(key, seq)`, `jobs` at a time.
fn sort_bufs(bufs: &mut [RunBuf], jobs: usize) {
    if jobs <= 1 || bufs.len() <= 1 {
        for b in bufs.iter_mut() {
            b.heads.sort_unstable_by_key(|h| (h.key, h.seq));
        }
    } else {
        std::thread::scope(|s| {
            for b in bufs.iter_mut() {
                s.spawn(move || b.heads.sort_unstable_by_key(|h| (h.key, h.seq)));
            }
        });
    }
}

/// A k-way merge of sorted runs on a `(key, seq)` min-heap, pulled one
/// record at a time; each run's scratch pages are freed as they are read.
struct MergeStream {
    readers: Vec<SpillReader>,
    /// The current record of each reader.
    recs: Vec<Rec>,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Whether the heap's top was already handed out by `take`.
    taken: bool,
}

impl MergeStream {
    fn new<T: PageStore>(ctx: &mut BuildCtx<'_, T>, runs: Vec<Spill>) -> Result<Self> {
        let mut readers: Vec<SpillReader> = runs.into_iter().map(SpillReader::new).collect();
        let mut recs: Vec<Rec> = vec![Rec::default(); readers.len()];
        let mut heap = BinaryHeap::with_capacity(readers.len());
        for (i, r) in readers.iter_mut().enumerate() {
            if r.next(ctx, &mut recs[i])? {
                heap.push(Reverse((recs[i].key, recs[i].seq, i)));
            }
        }
        Ok(Self {
            readers,
            recs,
            heap,
            taken: false,
        })
    }

    /// The next record in `(key, seq)` order, valid until the next call.
    fn take<T: PageStore>(&mut self, ctx: &mut BuildCtx<'_, T>) -> Result<&Rec> {
        if std::mem::replace(&mut self.taken, true) {
            // Advance the run the last record came from, in one sift.
            if let Some(mut top) = self.heap.peek_mut() {
                let i = top.0 .2;
                if self.readers[i].next(ctx, &mut self.recs[i])? {
                    *top = Reverse((self.recs[i].key, self.recs[i].seq, i));
                } else {
                    PeekMut::pop(top);
                }
            }
        }
        match self.heap.peek() {
            Some(Reverse((_, _, i))) => Ok(&self.recs[*i]),
            None => Err(RStarError::InvalidBuild(
                "merged scratch stream ended before its record count".into(),
            )),
        }
    }

    /// Replaces `batch` with the next `len` records.
    fn take_batch<T: PageStore>(
        &mut self,
        ctx: &mut BuildCtx<'_, T>,
        len: usize,
        batch: &mut Batch,
    ) -> Result<()> {
        batch.items.clear();
        batch.coords.clear();
        for i in 0..len {
            let rec = self.take(ctx)?;
            batch.items.push((rec.id, i as u32));
            batch.coords.extend_from_slice(&rec.coords);
        }
        Ok(())
    }
}

/// Records on their way into leaves: `(id, position in coords)` items a
/// tiler may reorder, over one flat coordinate arena it need not touch.
#[derive(Default)]
struct Batch {
    items: Vec<(u64, u32)>,
    coords: Vec<f64>,
}

/// Emits `batch.items[tile]` as one packed leaf and records its parent
/// entry.
fn emit_leaf<S: PageStore>(
    writer: &mut LevelWriter<'_, S>,
    parents: &mut Vec<InternalEntry>,
    dim: usize,
    batch: &Batch,
    tile: Range<usize>,
) -> Result<()> {
    let mut coords = Vec::with_capacity(tile.len() * dim);
    for &(_, i) in &batch.items[tile.clone()] {
        coords.extend_from_slice(&batch.coords[i as usize * dim..][..dim]);
    }
    let ids = batch.items[tile].iter().map(|item| item.0).collect();
    let node = Node::from_raw_parts(0, dim as u32, coords.into(), ids);
    let mbr = node
        .mbr()
        .ok_or_else(|| RStarError::InvalidBuild("empty leaf tile".into()))?;
    let count = node.object_count();
    let page = writer.push(&node)?;
    parents.push(InternalEntry::new(mbr, page, count));
    Ok(())
}

/// External STR over an input larger than one run: sorts by `axis` and
/// cuts the merged stream at the in-memory tiler's exact slab
/// boundaries. A slab that fits one run is tiled in memory straight off
/// the stream; a larger one is spilled and recursed on, the outer stream
/// waiting where it stopped.
fn str_build<S: PageStore, T: PageStore>(
    ctx: &mut BuildCtx<'_, T>,
    writer: &mut LevelWriter<'_, S>,
    parents: &mut Vec<InternalEntry>,
    input: Input<'_>,
    n: usize,
    axis: usize,
) -> Result<()> {
    let (dim, cap, min) = (ctx.dim, ctx.leaf_cap, ctx.min_leaf);
    let mut sorted = external_sort(ctx, input, n, axis)?;
    let mut batch = Batch::default();
    if axis + 1 >= dim {
        // Last axis: cut the sorted stream straight into leaves.
        for group in chunk_balanced(n, cap, min) {
            sorted.take_batch(ctx, group.len(), &mut batch)?;
            emit_leaf(writer, parents, dim, &batch, 0..group.len())?;
        }
        return Ok(());
    }
    for slab in str_slabs(n, cap, min, dim, axis) {
        let len = slab.len();
        if len <= ctx.run_cap {
            sorted.take_batch(ctx, len, &mut batch)?;
            let arena = &batch.coords;
            let key = |item: &(u64, u32), axis: usize| arena[item.1 as usize * dim + axis];
            for tile in str_tile(&mut batch.items, cap, min, dim, axis + 1, &key) {
                emit_leaf(writer, parents, dim, &batch, tile)?;
            }
        } else {
            // Retag `seq` with the record's position in this axis's
            // order so the next axis's merge stays stable (exactly what
            // the in-memory stable sort preserves).
            let mut w = SpillWriter::new(ctx);
            for seq in slab {
                let rec = sorted.take(ctx)?;
                w.push(ctx, rec.key, seq as u64, rec.id, &rec.coords)?;
            }
            let spill = w.finish(ctx)?;
            str_build(ctx, writer, parents, Input::Spill(spill), len, axis + 1)?;
        }
    }
    Ok(())
}

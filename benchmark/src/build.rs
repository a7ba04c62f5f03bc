//! `build_external`: `sqda build --external` over a generated CSV, sized
//! so the sort spills 123 runs and needs two merge passes — the regime
//! the roadmap flags as super-linear. It uses `storage` and `rstar` the
//! other way round from the serve workloads (writes, sort, spill, merge,
//! sync), so a read-path gain that taxes the write path shows here as a
//! loss. `--jobs 1`: two sort workers on two cores were slower and
//! noisier when the workload was chosen.

use crate::oracle::{parse_query_stdout, Points};
use crate::proc::{generate_gaussian, path_str, run_cli, store_bytes, Res, Scratch};
use crate::stats::median;
use crate::{rng, serve, Ctx, RunResult};
use sqda_geom::Point;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{ExternalBuildOptions, ExternalBuildReport, RStarConfig, RStarTree, SliceSource};
use sqda_storage::{Bytes, DiskId, FileStore, IoStats, PageId, PageStore, Placement};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

const POINTS: usize = 2_000_000;
/// 2M / 16384 = 123 runs; the CLI merges 64 at a time, so two passes.
const RUN_CAPACITY: usize = 16_384;
const DISKS: u32 = 8;
const PAGE_SIZE: usize = 1024;
const SETUPS: usize = 5;
const MIN_BUILDS: usize = 3;
const ORACLE_QUERIES: usize = 20;
const K: usize = 10;

struct CliBuild {
    wall_s: f64,
    rss_mb: f64,
    report: ExternalBuildReport,
}

/// One `sqda build --external` into a fresh store directory.
fn cli_build(ctx: &Ctx, csv: &Path, store: &Path) -> Res<CliBuild> {
    let done = run_cli(
        &ctx.sqda,
        &[
            "build",
            "--input",
            path_str(csv)?,
            "--store",
            path_str(store)?,
            "--external",
            "--page-size",
            &PAGE_SIZE.to_string(),
            "--disks",
            &DISKS.to_string(),
            "--run-capacity",
            &RUN_CAPACITY.to_string(),
            "--jobs",
            "1",
            "--seed",
            &ctx.seed.to_string(),
        ],
    )?;
    // "external build: R runs, P merge passes, S pages spilled (peak K resident)"
    let line = done
        .stdout
        .lines()
        .find(|l| l.starts_with("external build:"))
        .ok_or("sqda build printed no `external build:` line")?;
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|w| !w.is_empty())
        .map(|w| w.parse())
        .collect::<Result<_, _>>()?;
    let [runs, merge_passes, spilled_pages, peak_scratch_pages] = numbers[..] else {
        return Err(format!("unexpected build report line: {line}").into());
    };
    Ok(CliBuild {
        wall_s: done.wall_s,
        rss_mb: done.rss_mb,
        report: ExternalBuildReport {
            runs,
            merge_passes,
            spilled_pages,
            peak_scratch_pages,
        },
    })
}

fn check_regime(result: &mut RunResult, report: &ExternalBuildReport) {
    if report.merge_passes != 2 {
        result.problems.push(format!(
            "build_external must need 2 merge passes, the build reported {} ({} runs)",
            report.merge_passes, report.runs
        ));
    }
}

/// k-NN through `sqda query` against the built store, against the oracle.
fn check_store(
    ctx: &Ctx,
    store: &Path,
    points: &Points,
    build: usize,
    result: &mut RunResult,
) -> Res<()> {
    let queries = rng::gaussian_queries(ORACLE_QUERIES, ctx.seed ^ (0xB111D + build as u64));
    for q in &queries {
        result.attempted += 1;
        let out = run_cli(
            &ctx.sqda,
            &[
                "query",
                "--store",
                path_str(store)?,
                "--point",
                &format!("{},{}", q[0], q[1]),
                "--k",
                &K.to_string(),
            ],
        );
        let verdict = match out {
            Ok(done) => parse_query_stdout(&done.stdout).and_then(|a| points.check(q, K, &a)),
            Err(e) => Err(e.to_string()),
        };
        if let Err(e) = verdict {
            result.fail(format!("build {build}, query {q:?}: {e}"));
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx, traced: bool) -> Res<RunResult> {
    let scratch = Scratch::new(&ctx.out)?;
    if traced {
        run_traced(ctx, &scratch)
    } else {
        run_end_to_end(ctx, &scratch)
    }
}

fn run_end_to_end(ctx: &Ctx, scratch: &Scratch) -> Res<RunResult> {
    let mut result = RunResult::default();
    let csv = scratch.path("points.csv");
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        generate_gaussian(&ctx.sqda, POINTS, ctx.seed, &csv)?;
        setup_s.push(started.elapsed().as_secs_f64());
    }
    result.set_n("setup_s", median(&setup_s), setup_s.len());
    let points = Points::load(&csv)?;

    let started = Instant::now();
    let (mut wall_s, mut rss_mb, mut bytes_per_point) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed_s = 0.0;
    while wall_s.len() < MIN_BUILDS || timed_s < ctx.seconds {
        let build = wall_s.len();
        let store = scratch.path(&format!("store{build}"));
        result.attempted += 1;
        let done = cli_build(ctx, &csv, &store)?;
        timed_s += done.wall_s;
        check_regime(&mut result, &done.report);
        wall_s.push(done.wall_s);
        rss_mb.push(done.rss_mb);
        bytes_per_point.push(store_bytes(&store)? as f64 / POINTS as f64);
        check_store(ctx, &store, &points, build, &mut result)?;
        std::fs::remove_dir_all(&store)?;
        // A machine far slower than the one this was sized on still ends.
        if started.elapsed().as_secs_f64() > 6.0 * ctx.seconds {
            break;
        }
    }
    if bytes_per_point.iter().any(|b| *b != bytes_per_point[0]) {
        result.problems.push(format!(
            "store size differs between builds of one input: {bytes_per_point:?}"
        ));
    }
    let build_s = median(&wall_s);
    result.set_n("p50_us", build_s * 1e6, wall_s.len());
    result.set_n("ops_per_s", POINTS as f64 / build_s, wall_s.len());
    result.set_n("rss_mb", median(&rss_mb), rss_mb.len());
    result.set("store_bytes_per_point", bytes_per_point[0]);
    result
        .notes
        .push(format!("{} builds: {wall_s:.3?} s", wall_s.len()));
    Ok(result)
}

/// [`PageStore`] decorator: counts pages and the time spent inside
/// `write` and `read`, round both the scratch and the destination store.
struct Counting {
    inner: FileStore,
    writes: AtomicU64,
    reads: AtomicU64,
    write_ns: AtomicU64,
    read_ns: AtomicU64,
}

impl Counting {
    fn new(inner: FileStore) -> Self {
        Counting {
            inner,
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            write_ns: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
        }
    }
}

impl PageStore for Counting {
    fn num_disks(&self) -> u32 {
        self.inner.num_disks()
    }
    fn num_cylinders(&self) -> u32 {
        self.inner.num_cylinders()
    }
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn allocate(&self, disk: DiskId) -> sqda_storage::Result<PageId> {
        self.inner.allocate(disk)
    }
    fn write(&self, page: PageId, data: Bytes) -> sqda_storage::Result<()> {
        let started = Instant::now();
        let out = self.inner.write(page, data);
        self.write_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        self.writes.fetch_add(1, Relaxed);
        out
    }
    fn read(&self, page: PageId) -> sqda_storage::Result<Bytes> {
        let started = Instant::now();
        let out = self.inner.read(page);
        self.read_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        self.reads.fetch_add(1, Relaxed);
        out
    }
    fn free(&self, page: PageId) -> sqda_storage::Result<()> {
        self.inner.free(page)
    }
    fn placement(&self, page: PageId) -> sqda_storage::Result<Placement> {
        self.inner.placement(page)
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
    fn pages_per_disk(&self) -> Vec<usize> {
        self.inner.pages_per_disk()
    }
}

struct InProcess {
    wall_s: f64,
    write_s: f64,
    read_s: f64,
    sync_s: f64,
    pages_written: u64,
    pages_read: u64,
    report: ExternalBuildReport,
    store_bytes: u64,
}

/// The CLI's external build, step for step, in process and behind the
/// counting decorator, over points already in memory.
fn in_process_build(seed: u64, points: &[(Point, u64)], dir: &Path) -> Res<InProcess> {
    let started = Instant::now();
    let store = Arc::new(Counting::new(FileStore::create(
        dir, DISKS, 1449, PAGE_SIZE, seed,
    )?));
    let scratch_dir = dir.join("scratch");
    let scratch = Arc::new(Counting::new(FileStore::create(
        &scratch_dir,
        DISKS,
        1449,
        PAGE_SIZE,
        seed,
    )?));
    let opts = ExternalBuildOptions {
        run_capacity: RUN_CAPACITY,
        jobs: 1,
        ..ExternalBuildOptions::default()
    };
    let (tree, report) = RStarTree::bulk_load_external_stats(
        Arc::clone(&store),
        RStarConfig::with_page_size(2, PAGE_SIZE),
        Box::new(ProximityIndex),
        &SliceSource::new(points),
        &scratch,
        &opts,
    )?;
    let sync_started = Instant::now();
    std::fs::remove_dir_all(&scratch_dir)?;
    store.inner.sync()?;
    let sync_s = sync_started.elapsed().as_secs_f64();
    let wall_s = started.elapsed().as_secs_f64();
    drop(tree);
    let sum = |f: fn(&Counting) -> &AtomicU64| f(&store).load(Relaxed) + f(&scratch).load(Relaxed);
    Ok(InProcess {
        wall_s,
        write_s: sum(|c| &c.write_ns) as f64 / 1e9,
        read_s: sum(|c| &c.read_ns) as f64 / 1e9,
        sync_s,
        pages_written: sum(|c| &c.writes),
        pages_read: sum(|c| &c.reads),
        report,
        store_bytes: store_bytes(dir)?,
    })
}

fn run_traced(ctx: &Ctx, scratch: &Scratch) -> Res<RunResult> {
    let mut result = RunResult::default();
    let csv = scratch.path("points.csv");
    generate_gaussian(&ctx.sqda, POINTS, ctx.seed, &csv)?;

    // The program's own build: `build_s` to compare with, its report
    // line, and the shape of the tree it leaves.
    let store = scratch.path("store");
    result.attempted += 1;
    let cli = cli_build(ctx, &csv, &store)?;
    check_regime(&mut result, &cli.report);
    serve::tree_shape(ctx, &store, &mut result)?;
    let cli_store_bytes = store_bytes(&store)?;
    std::fs::remove_dir_all(&store)?;

    let points: Vec<(Point, u64)> = Points::load(&csv)?
        .0
        .iter()
        .enumerate()
        .map(|(i, p)| (Point::new(p.to_vec()), i as u64))
        .collect();
    result.attempted += 1;
    let full = in_process_build(ctx.seed, &points, &scratch.path("traced"))?;
    if full.report != cli.report || full.store_bytes != cli_store_bytes {
        result.fail(format!(
            "in-process build differs from the CLI's: {:?} / {} B vs {:?} / {cli_store_bytes} B",
            full.report, full.store_bytes, cli.report
        ));
    }
    // A quarter of the input at the same run capacity: 31 runs, one pass.
    let quarter = in_process_build(ctx.seed, &points[..POINTS / 4], &scratch.path("quarter"))?;

    result.set("cli.build_csv_s", cli.wall_s - full.wall_s);
    result.set("storage.build_pages_written", full.pages_written as f64);
    result.set("storage.build_pages_read", full.pages_read as f64);
    result.set("storage.build_write_s", full.write_s);
    result.set("storage.build_read_s", full.read_s);
    result.set("storage.build_sync_s", full.sync_s);
    result.set(
        "storage.write_amp",
        (full.pages_written * PAGE_SIZE as u64) as f64 / full.store_bytes as f64,
    );
    result.set("rstar.build_runs", full.report.runs as f64);
    result.set("rstar.build_merge_passes", full.report.merge_passes as f64);
    result.set(
        "rstar.build_spilled_pages",
        full.report.spilled_pages as f64,
    );
    result.set(
        "rstar.build_peak_scratch_pages",
        full.report.peak_scratch_pages as f64,
    );
    result.set(
        "rstar.build_self_s",
        full.wall_s - full.write_s - full.read_s - full.sync_s,
    );
    result.set(
        "rstar.build_scaling",
        (full.wall_s / POINTS as f64) / (quarter.wall_s / (POINTS / 4) as f64),
    );
    result.notes.push(format!(
        "CLI build {:.3} s; in process {:.3} s (quarter input, {} merge pass: {:.3} s)",
        cli.wall_s, full.wall_s, quarter.report.merge_passes, quarter.wall_s
    ));
    Ok(result)
}

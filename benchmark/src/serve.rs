//! `serve_hot` and `serve_miss`: a loopback `sqda serve` over a store the
//! CLI generated and built, driven closed loop over the line protocol.
//!
//! Closed loop because the protocol is one reply per request per
//! connection with a thread per connection: callers wait by construction.
//! Phase A is one connection (latency), phase B two (throughput); five
//! rounds of each, the reported value the median of the rounds.
//!
//! The two workloads differ in one thing, the node-cache size, so that an
//! I/O-path change shows on `serve_miss` and must not on `serve_hot`, and a
//! protocol/dispatch/kernel change shows on `serve_hot`. Reads that miss
//! the node cache are still served from the OS page cache: latencies are
//! this sandbox's, not a device's.

use crate::client::{query_line, Conn, Stats};
use crate::oracle::{parse_reply, Points};
use crate::proc::{generate_gaussian, path_str, run_cli, store_bytes, Res, Scratch, Server};
use crate::stats::{cv, mean, median, percentile, sorted, tail_quantile};
use crate::trace::{ledgers, write_chrome_trace, TracedAm, TracedBackend, Tracer};
use crate::{rng, Ctx, RunResult};
use sqda_analysis::TreeProfile;
use sqda_core::exec::run_query_with;
use sqda_core::{AccessMethod, AlgorithmKind, IndexNode, QueryScratch, RealTimeEngine, Workload};
use sqda_geom::Point;
use sqda_obs::LiveTelemetry;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{Node, RStarConfig, RStarTree};
use sqda_storage::{
    FileStore, IoBackend, NodeCache, PageId, PageStore, ReadObserver, ThreadedFileBackend,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const POINTS: usize = 1_000_000;
pub const K: usize = 10;
const DISKS: &str = "8";
const PAGE_SIZE: &str = "1024";
/// 31 sort runs, one merge pass: the store build is set-up here, the
/// two-pass regime is `build_external`'s subject.
const RUN_CAPACITY: &str = "32768";
const ROUNDS: usize = 5;
const SETUPS: usize = 3;
const POOL: usize = 100_000;
const WARM_PASS: usize = 2_000;
const ORACLE_SAMPLES: usize = 200;
/// Queries of the in-process traced pass (each pass runs them all).
const LEDGER_QUERIES: usize = 1_500;

pub struct Kind {
    pub name: &'static str,
    cache_args: [&'static str; 2],
    /// The same cache as `cache_args`, for the in-process traced pass.
    cache: fn() -> NodeCache<Node>,
}

/// Whole tree (about 25k nodes) resident in the node cache.
pub const HOT: Kind = Kind {
    name: "serve_hot",
    cache_args: ["--cache", "65536"],
    cache: || NodeCache::new(65_536),
};

/// 256 KiB of decoded nodes, about 1 % of the tree: the top levels stay,
/// everything below is read, decoded and inserted per query.
pub const MISS: Kind = Kind {
    name: "serve_miss",
    cache_args: ["--cache-bytes", "262144"],
    cache: || NodeCache::new_bytes(262_144, Node::heap_bytes),
};

/// A generated dataset, its built store and a warmed-up server.
struct Served {
    csv: PathBuf,
    store: PathBuf,
    server: Server,
    conn: Conn,
}

/// Everything before the first timed operation: generate, build, start
/// the server, warm up. `tag` keeps repeated set-ups apart on disk.
fn set_up(ctx: &Ctx, kind: &Kind, scratch: &Scratch, tag: usize) -> Res<Served> {
    let csv = scratch.path(&format!("points{tag}.csv"));
    let store = scratch.path(&format!("store{tag}"));
    let (csv_s, store_s) = (path_str(&csv)?, path_str(&store)?);
    let seed = ctx.seed.to_string();
    generate_gaussian(&ctx.sqda, POINTS, ctx.seed, &csv)?;
    run_cli(
        &ctx.sqda,
        &[
            "build",
            "--input",
            csv_s,
            "--store",
            store_s,
            "--external",
            "--page-size",
            PAGE_SIZE,
            "--disks",
            DISKS,
            "--run-capacity",
            RUN_CAPACITY,
            "--jobs",
            "1",
            "--seed",
            &seed,
        ],
    )?;
    let server = Server::start(&ctx.sqda, &store, &kind.cache_args)?;
    let mut conn = Conn::connect(&server.addr)?;
    warm_up(&mut conn, ctx.seed)?;
    Ok(Served {
        csv,
        store,
        server,
        conn,
    })
}

/// Pipelined passes of queries (their own stream, not the timed pool):
/// one pass if it adds no cache miss (the tree is resident), else a second
/// so the LRU holds what this query distribution keeps hot. A pass touches
/// 250 times more nodes than the small cache holds, so two settle it.
fn warm_up(conn: &mut Conn, seed: u64) -> Res<()> {
    for pass in 0..2u64 {
        let before = Stats::fetch(conn)?;
        let lines: Vec<String> = rng::gaussian_queries(WARM_PASS, seed ^ (0xAAAA + pass))
            .iter()
            .map(|p| query_line(p, K))
            .collect();
        for reply in conn.pipeline(&lines)? {
            if !reply.starts_with("OK ") {
                return Err(format!("warm-up query failed: {reply:.80}").into());
            }
        }
        if Stats::fetch(conn)?.cache_misses == before.cache_misses {
            break;
        }
    }
    Ok(())
}

fn shut_down(mut served: Served) -> Res<bool> {
    let bye = served.conn.request("SHUTDOWN\n")?.reply;
    Ok(served.server.wait_exit()? && bye == "BYE")
}

/// One closed-loop client: sends pool queries `first, first+step, ...`
/// until `deadline`; returns `(pool index, round trip, reply)` per request.
struct Sample {
    query: usize,
    rtt_ns: u64,
    ttfb_ns: u64,
    reply: String,
}

fn closed_loop(
    conn: &mut Conn,
    pool: &[[f64; 2]],
    first: usize,
    step: usize,
    deadline: Instant,
) -> Res<Vec<Sample>> {
    let mut samples = Vec::new();
    let mut i = first;
    while Instant::now() < deadline {
        let query = i % pool.len();
        let timed = conn.request(&query_line(&pool[query], K))?;
        samples.push(Sample {
            query,
            rtt_ns: timed.rtt_ns,
            ttfb_ns: timed.ttfb_ns,
            reply: timed.reply,
        });
        i += step;
    }
    Ok(samples)
}

fn count_failures(result: &mut RunResult, samples: &[Sample]) {
    result.attempted += samples.len() as u64;
    for s in samples {
        if !s.reply.starts_with("OK ") {
            result.fail(format!("query {} answered {:.80}", s.query, s.reply));
        }
    }
}

/// Compares an even sample of the replies with the brute-force oracle.
fn check_answers(
    result: &mut RunResult,
    csv: &Path,
    pool: &[[f64; 2]],
    samples: &[Sample],
) -> Res<()> {
    let points = Points::load(csv)?;
    let stride = (samples.len() / ORACLE_SAMPLES).max(1);
    let mut checked = 0;
    for s in samples.iter().step_by(stride).take(ORACLE_SAMPLES) {
        result.attempted += 1;
        checked += 1;
        let verdict = parse_reply(&s.reply).and_then(|a| points.check(&pool[s.query], K, &a));
        if let Err(e) = verdict {
            result.fail(format!("query {}: {e}", s.query));
        }
    }
    result
        .notes
        .push(format!("oracle checked {checked} replies"));
    Ok(())
}

/// The workload must stress the layer it was chosen for.
fn check_contrast(
    result: &mut RunResult,
    kind: &Kind,
    before: &Stats,
    after: &Stats,
) -> (f64, f64) {
    let queries = (after.queries - before.queries).max(1) as f64;
    let reads = (after.reads - before.reads) as f64;
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let reads_per_query = reads / queries;
    let hit_ratio = hits / (hits + misses).max(1.0);
    if kind.name == HOT.name && reads > 0.0 {
        result.problems.push(format!(
            "serve_hot read {reads} pages from the backend; its tree must be resident"
        ));
    }
    if kind.name == MISS.name && (reads_per_query < 3.0 || hit_ratio >= 0.9) {
        result.problems.push(format!(
            "serve_miss must miss: {reads_per_query:.2} reads/query (want >= 3), hit ratio {hit_ratio:.3} (want < 0.9)"
        ));
    }
    (reads_per_query, hit_ratio)
}

pub fn run(ctx: &Ctx, kind: &Kind, traced: bool) -> Res<RunResult> {
    let scratch = Scratch::new(&ctx.out)?;
    if traced {
        run_traced(ctx, kind, &scratch)
    } else {
        run_end_to_end(ctx, kind, &scratch)
    }
}

fn run_end_to_end(ctx: &Ctx, kind: &Kind, scratch: &Scratch) -> Res<RunResult> {
    let mut result = RunResult::default();

    // Set-up is measured several times over and the median reported; the
    // last one is the one the timed phases run against.
    let mut setup_s = Vec::new();
    let mut served = None;
    for tag in 0..SETUPS {
        if let Some(previous) = served.take() {
            shut_down(previous)?;
            std::fs::remove_dir_all(scratch.path(&format!("store{}", tag - 1)))?;
        }
        let started = Instant::now();
        served = Some(set_up(ctx, kind, scratch, tag)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut served = served.expect("SETUPS > 0");
    result.set_n("setup_s", median(&setup_s), setup_s.len());

    let pool = rng::gaussian_queries(POOL, ctx.seed);
    let phase = Duration::from_secs_f64(ctx.seconds / (2 * ROUNDS) as f64);
    let mut second = Conn::connect(&served.server.addr)?;
    let before = Stats::fetch(&mut served.conn)?;
    let mut cursor = 0usize;
    let mut latency_samples: Vec<Sample> = Vec::new();
    let mut round_p50_us = Vec::new();
    let mut round_qps = Vec::new();
    let mut throughput_samples: Vec<Sample> = Vec::new();
    for _ in 0..ROUNDS {
        // Phase A: one connection, latency.
        let a = closed_loop(&mut served.conn, &pool, cursor, 1, Instant::now() + phase)?;
        cursor += a.len();
        let rtts: Vec<f64> = a.iter().map(|s| s.rtt_ns as f64 / 1e3).collect();
        round_p50_us.push(median(&rtts));
        latency_samples.extend(a);

        // Phase B: two connections, throughput.
        let started = Instant::now();
        let deadline = started + phase;
        let (b0, b1) = std::thread::scope(|s| {
            let other = s.spawn(|| closed_loop(&mut second, &pool, cursor + 1, 2, deadline));
            let mine = closed_loop(&mut served.conn, &pool, cursor, 2, deadline);
            (mine, other.join().expect("client thread panicked"))
        });
        let (b0, b1) = (b0?, b1?);
        let wall = started.elapsed().as_secs_f64();
        cursor += 2 * b0.len().max(b1.len());
        let ok = b0
            .iter()
            .chain(&b1)
            .filter(|s| s.reply.starts_with("OK "))
            .count();
        round_qps.push(ok as f64 / wall);
        throughput_samples.extend(b0);
        throughput_samples.extend(b1);
    }
    let after = Stats::fetch(&mut served.conn)?;
    drop(second);

    count_failures(&mut result, &latency_samples);
    count_failures(&mut result, &throughput_samples);
    check_contrast(&mut result, kind, &before, &after);
    result.notes.push(format!(
        "rounds: p50 {round_p50_us:.1?} us, throughput {round_qps:.1?} 1/s"
    ));
    result.set_n("p50_us", median(&round_p50_us), latency_samples.len());
    result.set_n("ops_per_s", median(&round_qps), throughput_samples.len());
    result.set("rss_mb", served.server.rss_mb());
    result.set(
        "store_bytes_per_point",
        store_bytes(&served.store)? as f64 / POINTS as f64,
    );

    let csv = served.csv.clone();
    result.attempted += 1;
    if !shut_down(served)? {
        result.fail("sqda serve did not exit cleanly on SHUTDOWN".into());
    }
    latency_samples.extend(throughput_samples);
    check_answers(&mut result, &csv, &pool, &latency_samples)?;
    Ok(result)
}

/// `sqda stats` → tree height, node count, average fill.
pub fn tree_shape(ctx: &Ctx, store: &Path, result: &mut RunResult) -> Res<()> {
    let out = run_cli(&ctx.sqda, &["stats", "--store", path_str(store)?])?.stdout;
    let field = |label: &str| -> Res<f64> {
        let line = out
            .lines()
            .find(|l| l.starts_with(label))
            .ok_or(format!("sqda stats printed no {label:?} line"))?;
        Ok(line
            .split_once(':')
            .ok_or("malformed stats line")?
            .1
            .trim()
            .parse()?)
    };
    result.set("rstar.tree_height", field("height")?);
    result.set("rstar.tree_nodes", field("nodes  ")?);
    result.set("rstar.avg_fill", field("avg fill")?);
    if !out.contains("invariants     : OK") {
        result.fail("sqda stats reports violated tree invariants".into());
    }
    result.attempted += 1;
    Ok(())
}

fn run_traced(ctx: &Ctx, kind: &Kind, scratch: &Scratch) -> Res<RunResult> {
    let mut result = RunResult::default();
    let mut served = set_up(ctx, kind, scratch, 0)?;
    let pool = rng::gaussian_queries(POOL, ctx.seed);

    // The client's own spans: request write → first reply byte → newline.
    let before = Stats::fetch(&mut served.conn)?;
    let socket_phase = Duration::from_secs_f64(ctx.seconds * 0.3);
    let samples = closed_loop(&mut served.conn, &pool, 0, 1, Instant::now() + socket_phase)?;
    let after = Stats::fetch(&mut served.conn)?;
    count_failures(&mut result, &samples);
    let (reads_per_query, hit_ratio) = check_contrast(&mut result, kind, &before, &after);
    let rtt_us = sorted(samples.iter().map(|s| s.rtt_ns as f64 / 1e3).collect());
    let ttfb_us: Vec<f64> = samples.iter().map(|s| s.ttfb_ns as f64 / 1e3).collect();
    let gap_us: Vec<f64> = samples
        .iter()
        .map(|s| (s.rtt_ns - s.ttfb_ns) as f64 / 1e3)
        .collect();
    let bytes: Vec<f64> = samples.iter().map(|s| (s.reply.len() + 1) as f64).collect();
    let n = samples.len();
    let (tail_q, tail_label) = tail_quantile(n);
    result.notes.push(format!(
        "cli.p99_us is {tail_label} of {n} round trips (p99 needs 1000, p90 100)"
    ));
    let socket_p50_us = percentile(&rtt_us, 0.5);
    result.set_n("cli.p99_us", percentile(&rtt_us, tail_q), n);
    result.set_n("cli.ttfb_us", median(&ttfb_us), n);
    result.set_n("cli.reply_gap_us", median(&gap_us), n);
    result.set_n("cli.reply_bytes", mean(&bytes), n);
    result.set("storage.cache_hit_ratio", hit_ratio);
    result.set("storage.reads_per_query", reads_per_query);
    let per_disk: Vec<f64> = after
        .reads_per_disk
        .iter()
        .zip(&before.reads_per_disk)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    result.set("storage.disk_read_cv", cv(&per_disk));
    result.set("storage.resident_bytes", after.resident_bytes as f64);

    // The socket + parse + reply floor.
    let ping_until = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.1);
    let mut pings = Vec::new();
    while Instant::now() < ping_until {
        let timed = served.conn.request("PING\n")?;
        result.attempted += 1;
        if timed.reply != "PONG" {
            result.fail(format!("PING answered {:.80}", timed.reply));
        }
        pings.push(timed.rtt_ns as f64 / 1e3);
    }
    result.set_n("cli.ping_rtt_us", median(&pings), pings.len());

    let store = served.store.clone();
    result.attempted += 1;
    if !shut_down(served)? {
        result.fail("sqda serve did not exit cleanly on SHUTDOWN".into());
    }
    tree_shape(ctx, &store, &mut result)?;

    let served_us = ledger(ctx, kind, &store, &pool[..LEDGER_QUERIES], &mut result)?;
    result.set("cli.overhead_us", socket_p50_us - served_us);
    Ok(result)
}

/// Parses `<store>/tree.meta` (what `sqda build` leaves for reopening).
fn open_tree(store_dir: &Path) -> Res<RStarTree<FileStore>> {
    let meta = std::fs::read_to_string(store_dir.join("tree.meta"))?;
    let field = |key: &str| -> Res<u64> {
        let value = meta
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
            .ok_or(format!("tree.meta has no {key}"))?;
        Ok(value.parse()?)
    };
    let store = Arc::new(FileStore::open(store_dir)?);
    Ok(RStarTree::attach(
        store,
        RStarConfig::with_page_size(field("dim")? as usize, field("page_size")? as usize),
        Box::new(ProximityIndex),
        PageId::from_raw(field("root")?),
    )?)
}

/// Runs `queries` one at a time through `engine.run`, exactly what the
/// `QUERY` verb calls; returns each query's wall time in µs and the mean
/// nodes per query.
fn engine_pass<A: AccessMethod>(
    engine: &RealTimeEngine<'_, A>,
    tracer: &Tracer,
    queries: &[[f64; 2]],
    result: &mut RunResult,
) -> Res<(Vec<f64>, f64)> {
    let mut wall_us = Vec::with_capacity(queries.len());
    let mut nodes = 0.0;
    for (i, q) in queries.iter().enumerate() {
        let workload = Workload::single(Point::new(q.to_vec()), K);
        let started = Instant::now();
        let report = tracer.root(i as u32, || engine.run(AlgorithmKind::Crss, &workload, 1))?;
        wall_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        result.attempted += 1;
        if report.failed > 0 || report.answers[0].len() != K {
            result.fail(format!("in-process query {i} failed"));
        }
        nodes += report.mean_nodes_per_query;
    }
    Ok((wall_us, nodes / queries.len() as f64))
}

/// The traced pass: the store the CLI built, reopened in process behind
/// the tracing decorators, driven one query at a time with the workload's
/// cache setting. Fills the core/storage/rstar/geom/obs metrics and
/// returns the untraced p50 of `engine.run` as served, in µs.
fn ledger(
    ctx: &Ctx,
    kind: &Kind,
    store_dir: &Path,
    queries: &[[f64; 2]],
    result: &mut RunResult,
) -> Res<f64> {
    let mut tree = open_tree(store_dir)?;
    tree.set_node_cache(Arc::new((kind.cache)()));
    // `sqda serve` profiles the tree through its node cache at start-up;
    // doing the same leaves the cache in the state a served query finds.
    TreeProfile::measure(&tree)?;
    let tracer = Arc::new(Tracer::new());
    let traced_am = TracedAm {
        inner: &tree,
        tracer: &tracer,
    };
    let live = Arc::new(LiveTelemetry::new(tree.store().num_disks()));
    let plain_backend: Arc<dyn IoBackend> = Arc::new(TracedBackend {
        inner: Arc::new(ThreadedFileBackend::new(Arc::clone(tree.store()))),
        tracer: Arc::clone(&tracer),
    });
    let observed_backend: Arc<dyn IoBackend> = Arc::new(TracedBackend {
        inner: Arc::new(ThreadedFileBackend::with_observer(
            Arc::clone(tree.store()),
            Arc::clone(&live) as Arc<dyn ReadObserver>,
        )),
        tracer: Arc::clone(&tracer),
    });
    let plain = RealTimeEngine::new(&traced_am, plain_backend)?;
    let serving = RealTimeEngine::new(&traced_am, observed_backend)?.with_telemetry(live)?;

    // Settle the cache on this query stream, then measured passes over the
    // same queries: bare engine and engine as served (telemetry and read
    // observer) alternating, so drift hits both alike; then as served with
    // the benchmark's spans on.
    engine_pass(&serving, &tracer, &queries[..queries.len() / 4], result)?;
    let (mut bare_us, mut served_us) = (Vec::new(), Vec::new());
    let mut nodes_per_query = 0.0;
    for _ in 0..2 {
        bare_us.extend(engine_pass(&plain, &tracer, queries, result)?.0);
        let (wall_us, nodes) = engine_pass(&serving, &tracer, queries, result)?;
        served_us.extend(wall_us);
        nodes_per_query = nodes;
    }
    tracer.set_on(true);
    let io_before = tree.io_stats();
    let (traced_us, _) = engine_pass(&serving, &tracer, queries, result)?;
    let io_after = tree.io_stats();
    tracer.set_on(false);

    let spans = tracer.take_spans();
    let (per_query, open) = ledgers(&spans);
    write_chrome_trace(&ctx.out.join(format!("trace_{}.json", kind.name)), &spans)?;
    if open > 0 {
        result.problems.push(format!(
            "{open} of {} query ledgers do not close within 5 %",
            per_query.len()
        ));
    }
    if per_query.len() != queries.len() {
        result.problems.push(format!(
            "{} root spans for {} queries",
            per_query.len(),
            queries.len()
        ));
    }

    let q = per_query.len().max(1) as f64;
    let total =
        |f: fn(&crate::trace::QueryLedger) -> u64| per_query.iter().map(f).sum::<u64>() as f64;
    let per_call = |ns: f64, calls: f64| if calls > 0.0 { ns / calls } else { 0.0 };
    let run_us: Vec<f64> = per_query
        .iter()
        .map(|l| l.engine_run_ns as f64 / 1e3)
        .collect();
    let self_us: Vec<f64> = per_query
        .iter()
        .map(|l| l.engine_self_ns as f64 / 1e3)
        .collect();
    let engine_run_us = median(&run_us);
    let engine_self_us = median(&self_us);
    let (probes, decodes, rounds) = (
        total(|l| l.probes),
        total(|l| l.decodes),
        total(|l| l.batches),
    );
    result.set_n("core.engine_run_us", engine_run_us, per_query.len());
    result.set_n("core.engine_self_us", engine_self_us, per_query.len());
    result.set("core.nodes_per_query", nodes_per_query);
    result.set("core.batches_per_query", rounds / q);
    result.set_n(
        "storage.cache_probe_ns",
        per_call(total(|l| l.probe_ns), probes),
        probes as usize,
    );
    result.set_n(
        "rstar.decode_ns",
        per_call(total(|l| l.decode_ns), decodes),
        decodes as usize,
    );
    result.set_n(
        "storage.backend_wait_us",
        per_call(total(|l| l.wait_ns), rounds) / 1e3,
        rounds as usize,
    );
    {
        let reads = tracer.reads.lock().expect("tracer poisoned");
        let as_f64 = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
        result.set_n(
            "storage.queue_ns",
            mean(&as_f64(&reads.queue_ns)),
            reads.queue_ns.len(),
        );
        result.set_n(
            "storage.service_ns",
            mean(&as_f64(&reads.service_ns)),
            reads.service_ns.len(),
        );
        result.set_n(
            "storage.handoff_us",
            mean(&as_f64(&reads.handoff_ns)) / 1e3,
            reads.handoff_ns.len(),
        );
    }
    result.set("obs.telemetry_us", median(&served_us) - median(&bare_us));
    result.set(
        "obs.trace_overhead_pct",
        100.0 * (median(&traced_us) - median(&served_us)) / median(&served_us),
    );

    // The hot/miss contrast, seen from inside.
    let backend_reads = io_after.reads - io_before.reads;
    result.notes.push(format!(
        "traced pass: {backend_reads} backend reads, {decodes} decodes, {rounds} submit_batch rounds over {} queries",
        per_query.len()
    ));
    if kind.name == HOT.name && (backend_reads > 0 || decodes > 0.0) {
        result
            .problems
            .push("serve_hot traced pass reached the backend; its tree must be resident".into());
    }
    if kind.name == MISS.name && decodes / q < 3.0 {
        result.problems.push(format!(
            "serve_miss traced pass decoded only {:.2} nodes per query",
            decodes / q
        ));
    }

    // Floors and ceilings, over the pages the traced queries visited, on a
    // second handle whose cache holds the whole tree.
    let mut floor_tree = open_tree(store_dir)?;
    floor_tree.set_node_cache(Arc::new(NodeCache::new(65_536)));
    TreeProfile::measure(&floor_tree)?;
    let mut scratch = QueryScratch::new();
    let mut algo_us = Vec::with_capacity(queries.len());
    let mut woptss_nodes = 0u64;
    for q in queries {
        let point = Point::new(q.to_vec());
        let started = Instant::now();
        let mut algo =
            AlgorithmKind::Crss.build_with(&floor_tree, point.clone(), K, &mut scratch)?;
        let run = run_query_with(&floor_tree, algo.as_mut(), &mut scratch)?;
        algo_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(&run);
        let mut oracle = AlgorithmKind::Woptss.build_with(&floor_tree, point, K, &mut scratch)?;
        woptss_nodes += run_query_with(&floor_tree, oracle.as_mut(), &mut scratch)?.nodes_visited;
    }
    let algo_p50 = median(&algo_us);
    let woptss_per_query = woptss_nodes as f64 / queries.len() as f64;
    result.set_n("core.algo_us", algo_p50, algo_us.len());
    result.set("core.dispatch_us", engine_self_us - algo_p50);
    result.set("core.woptss_nodes_per_query", woptss_per_query);
    result.set("core.nodes_over_woptss", nodes_per_query / woptss_per_query);

    // The distance kernels alone, over the blocks the queries visited.
    let visited: Vec<(usize, IndexNode)> = per_query
        .iter()
        .enumerate()
        .flat_map(|(i, l)| l.pages.iter().map(move |&p| (i, p)))
        .map(|(i, p)| Ok((i, floor_tree.read_index_node(PageId::from_raw(p))?)))
        .collect::<Res<_>>()?;
    let entries: usize = visited.iter().map(|(_, n)| n.len()).sum();
    let (mut d0, mut d1, mut d2) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for (i, node) in &visited {
        let q = &queries[*i];
        match node {
            IndexNode::Leaf(leaf) => leaf.dist_sq_into(q, &mut d0),
            IndexNode::Internal(block) => block.metrics_into(q, &mut d0, &mut d1, &mut d2),
        }
        std::hint::black_box((&d0, &d1, &d2));
    }
    let kernel_ns = started.elapsed().as_nanos() as f64;
    let ns_per_entry = kernel_ns / entries.max(1) as f64;
    let entries_per_query = entries as f64 / per_query.len().max(1) as f64;
    result.set_n("geom.kernel_ns_per_entry", ns_per_entry, entries);
    result.set("geom.entries_per_query", entries_per_query);
    result.set(
        "geom.kernel_share",
        entries_per_query * ns_per_entry / 1e3 / algo_p50,
    );

    // Raw page read and bare decode, single thread, same files and pages.
    let store = Arc::clone(floor_tree.store());
    let dim = floor_tree.dim();
    let mut order: Vec<u64> = per_query
        .iter()
        .flat_map(|l| l.pages.iter().copied())
        .collect();
    let mut shuffle = rng::SplitMix64::new(ctx.seed);
    for i in (1..order.len()).rev() {
        order.swap(i, shuffle.below(i + 1));
    }
    order.truncate(20_000);
    let started = Instant::now();
    let pages: Vec<_> = order
        .iter()
        .map(|&p| store.read(PageId::from_raw(p)))
        .collect::<Result<_, _>>()?;
    let read_ns = started.elapsed().as_nanos() as f64;
    result.set_n(
        "storage.pread_floor_ns",
        read_ns / pages.len().max(1) as f64,
        pages.len(),
    );
    let started = Instant::now();
    for (bytes, &p) in pages.iter().zip(&order) {
        let node = sqda_rstar::codec::decode_node(bytes.clone(), dim, PageId::from_raw(p))?;
        std::hint::black_box(&node);
    }
    let decode_ns = started.elapsed().as_nanos() as f64;
    result.set_n(
        "rstar.decode_floor_ns",
        decode_ns / pages.len().max(1) as f64,
        pages.len(),
    );

    Ok(median(&served_us))
}

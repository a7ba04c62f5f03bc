//! `sqda serve` — a TCP front-end over the real-clock engine.
//!
//! The server opens a persisted [`FileStore`] tree once, wraps it in a
//! [`RealTimeEngine`] over a batched [`IoBackend`], and answers k-NN
//! queries from concurrent clients, one thread per connection. This is
//! the "real disks" end of the execution-backend seam: the very same
//! session machinery the simulator drives with a virtual clock here
//! runs against real files on the machine's clock.
//!
//! # Threads
//!
//! A request is parsed, run and answered on its connection's thread:
//! `QUERY` calls `engine.query`, which drives the query's session on the
//! caller over the connection's own [`QueryScratch`], so the only
//! hand-off in a served query is a round's page reads going to the
//! backend's per-disk workers (none when the node cache holds the
//! round). The accept loop owns the listener and nothing else.
//!
//! A handler whose replies are all flushed, with nothing buffered, would
//! block in `read`, and waking it costs 7–9 µs of a round trip on a
//! 2-vCPU VM. So first it polls its socket, non-blocking and yielding
//! the core between attempts, for up to [`POLL_WINDOW`] (20 µs), and
//! only then blocks. It polls only while both hold: its peer sent the
//! previous request within the window of the reply before it (a new
//! connection counts as prompt), and fewer connections sent a request in
//! the last millisecond than the process has cores, so the spin takes a
//! core no other connection needs. `STATS polled_requests=` counts the
//! requests found by polling.
//!
//! # Replies, flushing and limits
//!
//! Accepted sockets run with `TCP_NODELAY`, and replies collect in a
//! per-connection buffer that is written out whenever the handler is
//! about to wait for input — i.e. unless a complete further request
//! line is already buffered — or holds 64 KiB. A lone request therefore
//! gets its reply, newline included, in one segment (two small segments
//! would stall ~40 ms between Nagle and the peer's delayed ACK), and a
//! pipelined burst gets its replies in as few writes as its requests
//! arrived in, in request order.
//!
//! A request line is at most 64 KiB before its newline: a longer one is
//! answered `ERR line too long` and the connection closed, since there
//! is no telling where the next request starts. A line that is not
//! UTF-8 gets an `ERR` and the connection stays open.
//!
//! # Shutdown
//!
//! `SHUTDOWN` is answered `BYE`, then the server stops accepting and
//! shuts down every open connection in both directions: idle clients
//! read end-of-file, a request another connection had in flight still
//! runs to completion in the engine but its reply is dropped. The
//! process then writes its calibration, trace and metrics files and
//! exits; it does not wait for clients to leave.
//!
//! # Protocol
//!
//! Line-oriented, UTF-8, one request per line, one reply per request
//! (all replies are a single line except `METRICS`):
//!
//! ```text
//! -> QUERY <x,y,...> <k> [bbss|fpss|crss|woptss|frontier]
//! <- OK <n> <id>:<dist> <id>:<dist> ...
//! -> EXPLAIN <x,y,...> <k> [bbss|fpss|crss|woptss|frontier]
//! <- {"query":...,"observed_accesses":...,"predicted_accesses":...,...}
//!    (runs the query and returns its one-line JSON introspection
//!    record: observed per-level/per-disk work and timing next to the
//!    analytical prediction and the residuals; `woptss`'s oracle search
//!    reads before the query starts, which `STATS reads=` counts and the
//!    record and per-disk metrics do not)
//! -> BATCH <x,y;x,y;...> <k>   (B FPSS queries over shared rounds)
//! <- OK <B> fetches=<unique>/<interest> rounds=<r> wall_us=<t>
//!          q0=<id>:<dist>,... q1=...
//! -> PING
//! <- PONG
//! -> STATS
//! <- STATS queries=<q> reads=<r> cache_hits=<h> cache_misses=<m>
//!          cache_hit_ratio=<x> degraded_reads=<d> window_qps=<qps>
//!          window_p50_ms=<p50> window_p99_ms=<p99> reads_per_disk=<a,b,...>
//!          resident_bytes=<b> byte_budget=<b> inline_reads=<n>
//!          polled_requests=<n>
//! -> METRICS       (Prometheus text exposition; read until the "# EOF" line)
//! <- # HELP sqda_queries_started_total ...
//!    ...
//!    # EOF
//! -> DUMP-TRACE <name>   (write the flight-recorder ring as a trace file
//!                         <store>/trace/<name>; a bare file name only)
//! <- OK trace events=<n> path=<store>/trace/<name>
//! -> QUIT          (close this connection)
//! <- BYE
//! -> SHUTDOWN      (stop the whole server)
//! <- BYE
//! ```
//!
//! A `QUERY` or `EXPLAIN` that names no algorithm runs `frontier`, the
//! best-first frontier: every served read that memory answers narrows it
//! to Hjaltason–Samet's one page per round, which visits exactly WOPTSS's
//! nodes, where CRSS's width-1 threshold and candidate stack visit more.
//!
//! Any malformed request gets `ERR <detail>` and the connection stays
//! open; blank lines are skipped. `k` above [`MAX_K`] is `ERR k too
//! large`, a `BATCH` of more than [`MAX_BATCH`] points `ERR batch too
//! large`, and a query coordinate beyond ±1e150 `ERR coordinate out of
//! range` (its squared distances would overflow). Distances are
//! Euclidean, printed with six decimals. `inline_reads` counts the reads the threaded backend
//! served on the connection thread rather than a disk worker.
//!
//! # Telemetry
//!
//! Every server carries a [`LiveTelemetry`] registry: the engine hands it
//! each query's one record — the `EXPLAIN` record, filled for every
//! query — once, at completion or abort, and the I/O backend feeds
//! per-disk service times through the `ReadObserver` seam, each update
//! one short lock on the query path. `--flight-cap` (or `--trace`) arms the bounded
//! flight-recorder ring that `DUMP-TRACE` and `--trace` export as a
//! Perfetto trace; `--slow-query-ms` / `--slow-query-log` append a JSONL
//! breakdown line for every query at or over the threshold.

use crate::args::{checked, parse_query_point, Args};
use crate::commands::{algo_by_name, calibrated_params, open_tree};
use sqda_analysis::{predict_knn, DeviceCalibration, DiskServiceModel, TreeProfile};
use sqda_core::{AlgorithmKind, Neighbor, QueryScratch, RealTimeEngine};
use sqda_geom::Point;
use sqda_obs::prometheus::ServerCounters;
use sqda_obs::{trace_document, LiveTelemetry};
use sqda_rstar::{Node, RStarTree};
use sqda_simkernel::SystemParams;
use sqda_storage::{FileStore, IoBackend, NodeCache, PageStore, ReadObserver, ThreadedFileBackend};
use std::collections::HashMap;
use std::error::Error;
use std::ffi::OsStr;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type CmdResult = Result<(), Box<dyn Error + Send + Sync>>;

/// Default flight-recorder ring capacity when `--trace` is given
/// without an explicit `--flight-cap`.
const DEFAULT_FLIGHT_CAP: usize = 65_536;

/// Default slow-query threshold when `--slow-query-log` is given
/// without an explicit `--slow-query-ms`.
const DEFAULT_SLOW_QUERY_MS: f64 = 100.0;

/// The analytical context behind the `EXPLAIN` verb: a tree profile
/// measured at store-open plus the (possibly calibrated) system
/// parameters, so every explained query carries a prediction next to
/// its observation.
pub struct ExplainContext {
    /// Geometry profile of the served tree; `None` when profiling
    /// failed (the verb then returns observations with null predictions).
    pub profile: Option<TreeProfile>,
    /// Parameters the model predicts with.
    pub params: SystemParams,
    /// Tree height in levels — the floor on predicted fetch rounds.
    pub height: u32,
    /// Whether `params` went through a [`DeviceCalibration`].
    pub calibrated: bool,
}

impl ExplainContext {
    /// Profiles `tree` (through its node cache; the reads are
    /// book-kept as `IoStats::profile_reads`) and predicts with
    /// `params` as-is.
    pub fn measure(tree: &RStarTree<FileStore>, params: SystemParams, calibrated: bool) -> Self {
        ExplainContext {
            profile: TreeProfile::measure(tree).ok(),
            params,
            height: tree.height(),
            calibrated,
        }
    }
}

/// `sqda serve`
pub fn serve(args: &Args) -> CmdResult {
    let store_dir = args.required("store")?.to_string();
    let port: u16 = args.get_or("port", 0)?;
    // Reads go through the per-disk worker threads of a
    // [`ThreadedFileBackend`]; `--backend file` names it.
    match args.get("backend").unwrap_or("file") {
        "file" => {}
        other => return Err(format!("unknown backend {other:?} (want file)").into()),
    }
    let cache: usize = args.get_or("cache", 4096)?;
    let cache_bytes: usize = args.get_or("cache-bytes", 0)?;
    let trace_path = args.get("trace").map(|s| s.to_string());
    let metrics_path = args.get("metrics").map(|s| s.to_string());
    let flight_cap: usize = args.get_or(
        "flight-cap",
        if trace_path.is_some() {
            DEFAULT_FLIGHT_CAP
        } else {
            0
        },
    )?;
    let slow_ms = match args.get("slow-query-ms") {
        None => None,
        Some(_) => Some(checked(
            "slow-query-ms",
            args.required_parsed("slow-query-ms")?,
            "a non-negative time",
            |ms: &f64| *ms >= 0.0,
        )?),
    };
    let slow_log_path = args.get("slow-query-log").map(|s| s.to_string());
    let uncalibrated = args.flag("uncalibrated");

    let (mut tree, meta) = open_tree(&store_dir)?;
    if cache_bytes > 0 {
        // Byte-budgeted mode: evict on resident bytes, not entry count,
        // so a fixed memory cap holds whatever the node fan-out is.
        tree.set_node_cache(Arc::new(NodeCache::<Node>::new_bytes(
            cache_bytes,
            Node::heap_bytes,
        )));
    } else if cache > 0 {
        tree.set_node_cache(Arc::new(NodeCache::<Node>::new(cache)));
    }
    let mut live = LiveTelemetry::new(tree.store().num_disks()).with_flight_recorder(flight_cap);
    if slow_ms.is_some() || slow_log_path.is_some() {
        let path = slow_log_path.unwrap_or_else(|| "slow-queries.jsonl".to_string());
        let threshold = slow_ms.unwrap_or(DEFAULT_SLOW_QUERY_MS);
        live = live.with_slow_query_log(Path::new(&path), threshold)?;
        println!("slow-query log: {path} (threshold {threshold} ms)");
    }
    let live = Arc::new(live);

    // The analytical plane: profile the tree once at open, and predict
    // with calibrated service terms when a previous run left a
    // `calibration.json` beside the store (disable with --uncalibrated).
    let base_params = SystemParams::with_disks(tree.store().num_disks());
    let calibration_path = DeviceCalibration::path_for(Path::new(&store_dir));
    let (params, calibration) = calibrated_params(&store_dir, tree.store().num_disks(), args);
    if let Some(cal) = &calibration {
        println!(
            "calibration: {} ({} samples, {})",
            calibration_path.display(),
            cal.samples,
            cal.source
        );
    }
    let explain = ExplainContext::measure(&tree, params, calibration.is_some());

    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    // The exact "listening on" line is the readiness handshake scripts
    // and the CI smoke job wait for; keep it first and flushed.
    println!("listening on {addr}");
    println!(
        "store {store_dir}: {} objects, dim {}, page size {}, {} disks, backend file",
        tree.num_objects(),
        meta.dim,
        meta.page_size,
        tree.store().num_disks(),
    );
    std::io::stdout().flush()?;
    run_server(&tree, listener, Arc::clone(&live), explain)?;

    // Refit the device calibration from what the run's disk workers
    // actually measured, so the next serve (and `sqda simulate` /
    // `sqda explain` against this store) predicts with observed service
    // times. Skipped when no reads were served.
    if !uncalibrated {
        let disks = live.snapshot().disks;
        let requests: u64 = disks.values().map(|d| d.requests.0).sum();
        let busy_ns: u64 = disks.values().map(|d| d.busy_ns.0).sum();
        let reference = DiskServiceModel::from_params(&base_params.disk);
        if let Some(cal) = DeviceCalibration::fit_from_totals(requests, busy_ns, &reference) {
            cal.save(&calibration_path)?;
            println!(
                "calibration written: {} ({} samples)",
                calibration_path.display(),
                cal.samples
            );
        } else {
            println!("calibration skipped: no backend reads observed (cache served everything)");
        }
    }

    // Shutdown sinks: drain what the live registry retained.
    if let Some(path) = &trace_path {
        let events = live.flight().map(|f| f.drain()).unwrap_or_default();
        std::fs::write(
            path,
            trace_document(Path::new(path), &events, live.num_disks(), 1),
        )?;
        println!("trace: {path} ({} events)", events.len());
    }
    if let Some(path) = &metrics_path {
        let mut snap = live.snapshot();
        snap.fold_io_stats(&tree.io_stats());
        std::fs::write(path, format!("{{\"snapshot\":{}}}\n", snap.to_json()))?;
        println!("metrics: {path}");
    }
    Ok(())
}

/// Longest request line served, excluding its newline. A client that
/// sends more without a newline gets `ERR line too long` and is closed.
const MAX_LINE: usize = 64 * 1024;

/// Most neighbours one request may ask for (`ERR k too large` beyond).
/// `k` sizes the reply — 29 bytes per neighbour — and the engine's
/// best-k array: unbounded, a client could make either as large as the
/// store. 65 536 neighbours is a 1.9 MB line.
const MAX_K: usize = 65_536;

/// Most points one `BATCH` may carry (`ERR batch too large` beyond).
/// Each point is a query with its own best-k array and a share of every
/// wavefront round: unbounded, the count is only capped by the line
/// length, at thousands of queries in one request.
const MAX_BATCH: usize = 1024;

/// Pending reply bytes at which a pipelined burst is written out even
/// though more requests are already buffered: bounds the reply buffer.
const REPLY_FLUSH_BYTES: usize = 64 * 1024;

/// How long a handler with every reply flushed polls its socket for the
/// next request before it blocks in `read` (see the module docs). A
/// single closed-loop client turns a reply around in 12–13 µs on
/// loopback (p50–p90); the wake-up a blocking read costs is 7–9 µs.
const POLL_WINDOW: Duration = Duration::from_micros(20);

/// A connection that sent a request within this long needs a core: the
/// handler polls only while fewer connections than cores did. Counted in
/// ticks of this length, so "within" is one to two ticks.
const RECENT: Duration = Duration::from_millis(1);

/// When a handler polls instead of blocking.
#[derive(Debug, Clone, Copy)]
struct PollRule {
    /// How long a poll lasts ([`POLL_WINDOW`] when serving).
    window: Duration,
    /// Cores the process may run on, read once at start: the lookup
    /// reads cgroup files.
    cores: usize,
}

impl PollRule {
    /// The rule `sqda serve` runs under: [`POLL_WINDOW`], and the cores
    /// the process may use.
    fn serving() -> Self {
        PollRule {
            window: POLL_WINDOW,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Polls when the peer answered its last reply within the window
    /// (`last_gap`: reply flushed → next request readable) and fewer
    /// connections than cores sent a request recently (`active`,
    /// this one included), so the poll spins on a core no one else needs.
    fn polls(&self, last_gap: Duration, active: usize) -> bool {
        last_gap <= self.window && active < self.cores
    }
}

/// The bits of an [`Activity`] tick word that count connections; the
/// tick number is above them.
const COUNT_BITS: u32 = 20;

/// How many connections sent a request recently, in O(1) per request
/// and without a lock: per tick of [`RECENT`], the number of distinct
/// connections that sent one in it. A connection counts itself once per
/// tick, so the shared words are written about once a millisecond per
/// busy connection, and read on every wait.
struct Activity {
    epoch: Instant,
    /// `tick << COUNT_BITS | connections`, for even and odd ticks.
    ticks: [AtomicU64; 2],
}

impl Activity {
    fn new() -> Self {
        Activity {
            epoch: Instant::now(),
            ticks: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// The tick `at` falls in; 1 is the first, so no word ever names 0.
    fn tick(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.epoch).as_nanos() / RECENT.as_nanos()) as u64 + 1
    }

    /// Counts a request sent at `at` on the connection whose last
    /// counted tick is `*last`.
    fn note(&self, at: Instant, last: &mut u64) {
        let tick = self.tick(at);
        if *last == tick {
            return;
        }
        *last = tick;
        let word = &self.ticks[(tick & 1) as usize];
        let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
            match w >> COUNT_BITS {
                t if t == tick => Some(w + 1),
                t if t < tick => Some(tick << COUNT_BITS | 1),
                _ => None, // another thread's clock is a tick ahead
            }
        });
    }

    /// Connections that sent a request in the tick `at` falls in or the
    /// one before, whichever counted more.
    fn active(&self, at: Instant) -> usize {
        let tick = self.tick(at);
        let count = |t: u64| {
            let w = self.ticks[(t & 1) as usize].load(Ordering::Relaxed);
            if w >> COUNT_BITS == t {
                (w & ((1 << COUNT_BITS) - 1)) as usize
            } else {
                0
            }
        };
        count(tick).max(count(tick - 1))
    }
}

/// What every connection handler shares.
struct Server<'a> {
    engine: RealTimeEngine<'a, RStarTree<FileStore>>,
    /// The engine's backend by its own type: it counts the reads it kept
    /// off its workers (`STATS inline_reads=`).
    threaded: Arc<ThreadedFileBackend>,
    explain: ExplainContext,
    /// Queries answered (`STATS queries=`).
    served: AtomicU64,
    shutdown: AtomicBool,
    /// A clone of every open connection, keyed by accept order, so
    /// `SHUTDOWN` can unblock handlers parked in `read`.
    conns: Mutex<HashMap<usize, TcpStream>>,
    addr: SocketAddr,
    poll: PollRule,
    activity: Activity,
    /// Requests a handler found by polling (`STATS polled_requests=`).
    polled: AtomicU64,
}

impl<'a> Server<'a> {
    /// An engine over `tree` whose reads go through a fresh
    /// [`ThreadedFileBackend`], both observed by `live`.
    fn new(
        tree: &'a RStarTree<FileStore>,
        live: Arc<LiveTelemetry>,
        explain: ExplainContext,
        addr: SocketAddr,
        poll: PollRule,
    ) -> Result<Self, Box<dyn Error + Send + Sync>> {
        let observer: Arc<dyn ReadObserver> = Arc::clone(&live) as _;
        let threaded = Arc::new(ThreadedFileBackend::with_observer(
            Arc::clone(tree.store()),
            observer,
        ));
        let io: Arc<dyn IoBackend> = threaded.clone();
        Ok(Server {
            engine: RealTimeEngine::new(tree, io)?.with_telemetry(live)?,
            threaded,
            explain,
            served: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            addr,
            poll,
            activity: Activity::new(),
            polled: AtomicU64::new(0),
        })
    }
}

/// Accept loop: one handler thread per connection, shared engine. Returns
/// once a client sends `SHUTDOWN`: every open connection is then shut
/// down, so idle clients cannot hold the server up, and the handlers are
/// joined. The `live` registry observes every query (engine side) and
/// every page read (backend side); the caller keeps its clone to drain
/// trace and metrics sinks after shutdown.
pub fn run_server(
    tree: &RStarTree<FileStore>,
    listener: TcpListener,
    live: Arc<LiveTelemetry>,
    explain: ExplainContext,
) -> CmdResult {
    serve_connections(tree, listener, live, explain, PollRule::serving())
}

/// [`run_server`] under an explicit poll rule.
fn serve_connections(
    tree: &RStarTree<FileStore>,
    listener: TcpListener,
    live: Arc<LiveTelemetry>,
    explain: ExplainContext,
    poll: PollRule,
) -> CmdResult {
    let server = &Server::new(tree, live, explain, listener.local_addr()?, poll)?;
    let conns = || server.conns.lock().expect("connection registry poisoned");
    std::thread::scope(|s| -> CmdResult {
        let mut accepted = Ok(());
        for (id, conn) in listener.incoming().enumerate() {
            if server.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(e) => {
                    accepted = Err(e.into());
                    break;
                }
            };
            let Ok(clone) = stream.try_clone() else {
                continue;
            };
            conns().insert(id, clone);
            s.spawn(move || {
                handle_connection(&stream, server);
                conns().remove(&id);
            });
        }
        // Whichever way the accept loop ended, the scope joins every
        // handler next: wake the ones blocked on their sockets.
        for stream in conns().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        accepted
    })
}

/// Serves one connection until `QUIT`, `SHUTDOWN`, end of input or a
/// socket error. Replies collect in `out` and leave in one `write` each
/// time the input is drained (see the module docs).
fn handle_connection(stream: &TcpStream, server: &Server) {
    // Replies are written whole, so Nagle has nothing to coalesce; off,
    // a reply never waits for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut line: Vec<u8> = Vec::new();
    let mut out = String::new();
    // The algorithms' working memory and the round buffers, grown by the
    // connection's first queries and reused by the rest.
    let mut scratch = QueryScratch::new();
    // The last wait's length, reply flushed → request readable; the
    // first request counts as prompt. And the last activity tick this
    // connection counted itself in.
    let mut gap = Duration::ZERO;
    let mut tick = 0;
    let last = loop {
        // The flush rule: never block in `read` holding replies, and
        // never hold more than REPLY_FLUSH_BYTES of them.
        if !out.is_empty() && (out.len() >= REPLY_FLUSH_BYTES || !reader.buffer().contains(&b'\n'))
        {
            if writer.write_all(out.as_bytes()).is_err() {
                return;
            }
            out.clear();
        }
        // Nothing buffered: the read below would block. Poll first when
        // the rule allows, so a prompt request is not a wake-up away.
        let idle_from = reader.buffer().is_empty().then(Instant::now);
        if let Some(idle_from) = idle_from {
            if server.poll.polls(gap, server.activity.active(idle_from)) {
                match poll_input(&mut reader, server.poll.window) {
                    Ok(true) => {
                        server.polled.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(false) => {}
                    // Still non-blocking: a write could fail half done.
                    Err(_) => break Control::Quit,
                }
            }
        }
        line.clear();
        let mut capped = reader.by_ref().take(MAX_LINE as u64 + 1);
        if !capped.read_until(b'\n', &mut line).is_ok_and(|n| n > 0) {
            break Control::Quit; // end of input, or the socket failed
        }
        let now = Instant::now();
        if let Some(idle_from) = idle_from {
            gap = now - idle_from;
        }
        server.activity.note(now, &mut tick);
        let control = if line.len() > MAX_LINE && !line.ends_with(b"\n") {
            out.push_str("ERR line too long");
            Control::Quit
        } else {
            match std::str::from_utf8(&line).map(str::trim) {
                Ok("") => continue,
                Ok(request) => respond(request, server, &mut scratch, &mut out),
                Err(_) => {
                    out.push_str("ERR request is not valid UTF-8");
                    Control::None
                }
            }
        };
        out.push('\n');
        if !matches!(control, Control::None) {
            break control;
        }
    };
    let _ = writer.write_all(out.as_bytes());
    if matches!(last, Control::Shutdown) {
        // After the BYE is on the wire: the accept loop closes this
        // connection too once it sees the flag.
        server.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(server.addr);
    }
}

/// Polls the reader's socket for input for up to `window`, yielding the
/// core between attempts; `Ok(true)` once input is buffered. The socket
/// is non-blocking only inside this call, so every write and every
/// blocking read sees it blocking; `Err` when it could not be put back
/// (and the connection must close).
/// (The registry's clone shares the mode, and only ever shuts down.)
fn poll_input(reader: &mut BufReader<&TcpStream>, window: Duration) -> std::io::Result<bool> {
    use std::io::ErrorKind::{Interrupted, WouldBlock};
    let stream = *reader.get_ref();
    if stream.set_nonblocking(true).is_err() {
        return Ok(false);
    }
    let start = Instant::now();
    let arrived = loop {
        match reader.fill_buf() {
            // Input, or end of input for the blocking read to see.
            Ok(buf) => break !buf.is_empty(),
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
            Err(_) => break false, // the blocking read reports it
        }
        if start.elapsed() >= window {
            break false;
        }
        std::thread::yield_now();
    };
    stream.set_nonblocking(false)?;
    Ok(arrived)
}

enum Control {
    None,
    Quit,
    Shutdown,
}

/// The operands `QUERY`, `EXPLAIN` and `BATCH` share, validated
/// against the served tree.
struct KnnRequest {
    /// One point, or one per `;`-separated part for `BATCH`.
    points: Vec<Point>,
    k: usize,
    kind: AlgorithmKind,
}

/// Parses `<x,y,...> <k> [algo]` (`batch`: `<x,y;x,y;...> <k>`) off the
/// words after the verb; the `Err` is the `ERR` reply's detail.
fn parse_knn<'a>(
    mut words: impl Iterator<Item = &'a str>,
    usage: &str,
    batch: bool,
    dim: usize,
) -> Result<KnnRequest, String> {
    let (Some(coords), Some(k)) = (words.next(), words.next()) else {
        return Err(format!("usage: {usage}"));
    };
    let point = |part: &str| parse_query_point(part).map_err(|e| e.to_string());
    let points: Vec<Point> = if batch {
        if coords.split(';').count() > MAX_BATCH {
            return Err("batch too large".into());
        }
        coords.split(';').map(point).collect::<Result<_, _>>()?
    } else {
        vec![point(coords)?]
    };
    let k: usize = match k.parse() {
        Ok(k) if k > MAX_K => return Err("k too large".into()),
        Ok(k) if k > 0 => k,
        _ => return Err(format!("bad k {k:?}")),
    };
    // `BATCH` names no algorithm: any word after its `k` is trailing.
    let kind = match if batch { None } else { words.next() } {
        None => AlgorithmKind::Frontier,
        Some(name) => algo_by_name(name).map_err(|e| e.to_string())?,
    };
    no_more(words)?;
    if let Some(p) = points.iter().find(|p| p.dim() != dim) {
        return Err(format!("query dim {} but tree dim {dim}", p.dim()));
    }
    Ok(KnnRequest { points, k, kind })
}

/// Refuses a request that has words left over.
fn no_more<'a>(mut words: impl Iterator<Item = &'a str>) -> Result<(), String> {
    match words.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected trailing {extra:?}")),
    }
}

/// `name` if it is a bare file name: no `/`, not `.` or `..`, not empty,
/// no NUL. `DUMP-TRACE` writes under `<store>/trace/`, and a client names
/// a file there, not a place.
fn bare_file_name(name: &str) -> Result<&str, String> {
    if name.contains('\0') || Path::new(name).file_name() != Some(OsStr::new(name)) {
        return Err(format!("DUMP-TRACE takes a bare file name, not {name:?}"));
    }
    Ok(name)
}

/// Appends `answers` as `<id>:<dist>` items with `sep` between them.
fn write_neighbors(out: &mut String, answers: &[Neighbor], sep: char) {
    for (i, n) in answers.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        let _ = write!(out, "{}:{:.6}", n.object.0, n.dist());
    }
}

/// One protocol request → one reply appended to `out`, without its
/// final newline (plus connection control). A refused request leaves
/// exactly `ERR <detail>` behind.
fn respond(
    request: &str,
    server: &Server,
    scratch: &mut QueryScratch,
    out: &mut String,
) -> Control {
    let start = out.len();
    match try_respond(request, server, scratch, out) {
        Ok(control) => control,
        Err(detail) => {
            out.truncate(start);
            let _ = write!(out, "ERR {detail}");
            Control::None
        }
    }
}

fn try_respond(
    request: &str,
    server: &Server,
    scratch: &mut QueryScratch,
    out: &mut String,
) -> Result<Control, String> {
    let Server {
        engine,
        threaded,
        explain,
        served,
        polled,
        ..
    } = server;
    let dim = engine.access_method().dim();
    let mut words = request.split_whitespace();
    // `write!` into a `String` cannot fail; its results are dropped.
    match words.next() {
        Some("PING") => out.push_str("PONG"),
        Some("QUIT") => {
            out.push_str("BYE");
            return Ok(Control::Quit);
        }
        Some("SHUTDOWN") => {
            out.push_str("BYE");
            return Ok(Control::Shutdown);
        }
        Some("STATS") => {
            let io = engine.access_method().io_stats();
            // The first four fields are a wire contract (smoke scripts
            // parse the prefix); new telemetry only appends.
            let _ = write!(
                out,
                "STATS queries={} reads={} cache_hits={} cache_misses={}",
                served.load(Ordering::Relaxed),
                io.reads,
                io.cache_hits,
                io.cache_misses
            );
            let lookups = io.cache_hits + io.cache_misses;
            let ratio = if lookups == 0 {
                0.0
            } else {
                io.cache_hits as f64 / lookups as f64
            };
            let _ = write!(out, " cache_hit_ratio={ratio:.4}");
            if let Some(live) = engine.telemetry() {
                let (w, degraded_reads) = live.stats();
                let _ = write!(
                    out,
                    " degraded_reads={} window_qps={:.3} window_p50_ms={:.3} window_p99_ms={:.3}",
                    degraded_reads, w.qps, w.p50_ms, w.p99_ms
                );
            }
            out.push_str(" reads_per_disk=");
            for (i, reads) in io.reads_per_disk.iter().enumerate() {
                let _ = write!(out, "{}{reads}", if i > 0 { "," } else { "" });
            }
            let _ = write!(
                out,
                " resident_bytes={} byte_budget={}",
                io.cache_resident_bytes, io.cache_byte_budget
            );
            let _ = write!(out, " inline_reads={}", threaded.inline_reads());
            let _ = write!(out, " polled_requests={}", polled.load(Ordering::Relaxed));
        }
        Some("METRICS") => {
            let live = engine.telemetry().ok_or("telemetry disabled")?;
            no_more(words)?;
            let io = engine.access_method().io_stats();
            // Multi-line reply; the final "# EOF" line doubles as the
            // exposition-format terminator and the protocol terminator.
            let counters = ServerCounters {
                inline_reads: threaded.inline_reads(),
                polled_requests: polled.load(Ordering::Relaxed),
            };
            out.push_str(live.prometheus(Some(&io), Some(counters)).trim_end());
        }
        Some("DUMP-TRACE") => {
            let name = words.next().ok_or("usage: DUMP-TRACE <file name>")?;
            no_more(words)?;
            let dir = engine.access_method().store().dir().join("trace");
            let path = dir.join(bare_file_name(name)?);
            let live = engine.telemetry().ok_or("telemetry disabled")?;
            let flight = live
                .flight()
                .ok_or("flight recorder disabled (serve --flight-cap <n>)")?;
            let events = flight.drain();
            let doc = trace_document(&path, &events, live.num_disks(), 1);
            let shown = path.display();
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, doc))
                .map_err(|e| format!("cannot write {shown}: {e}"))?;
            let _ = write!(out, "OK trace events={} path={shown}", events.len());
        }
        Some("QUERY") => {
            let mut req = parse_knn(words, "QUERY <x,y,...> <k> [algo]", false, dim)?;
            let point = req.points.pop().expect("a QUERY parses to one point");
            let run = engine
                .query(req.kind, point, req.k, None, scratch)
                .map_err(|e| e.to_string())?;
            served.fetch_add(1, Ordering::Relaxed);
            let answers = &run.results;
            let _ = write!(out, "OK {}", answers.len());
            if !answers.is_empty() {
                out.push(' ');
            }
            write_neighbors(out, answers, ' ');
        }
        Some("EXPLAIN") => {
            let mut req = parse_knn(words, "EXPLAIN <x,y,...> <k> [algo]", false, dim)?;
            let (k, kind) = (req.k, req.kind);
            let point = req.points.pop().expect("an EXPLAIN parses to one point");
            // λ: the live windowed arrival rate, floored at one query
            // per second so an idle server still predicts finite waits.
            let lambda = engine
                .telemetry()
                .map(|l| l.window_stats().qps)
                .unwrap_or(0.0)
                .max(1.0);
            let predicted = explain.profile.as_ref().and_then(|profile| {
                predict_knn(profile, &explain.params, explain.height, k, lambda).map(Into::into)
            });
            let request = (lambda, explain.calibrated, predicted);
            engine
                .query(kind, point, k, Some(request), scratch)
                .map_err(|e| e.to_string())?;
            served.fetch_add(1, Ordering::Relaxed);
            out.push_str(&scratch.record().to_json());
        }
        Some("BATCH") => {
            // B ordinary FPSS machines in lockstep: each round reads the
            // union of their fetch lists once.
            let KnnRequest { points, k, .. } =
                parse_knn(words, "BATCH <x,y;x,y;...> <k>", true, dim)?;
            let (report, wall_s) = engine
                .run_query_batch(&points, k)
                .map_err(|e| e.to_string())?;
            served.fetch_add(points.len() as u64, Ordering::Relaxed);
            let _ = write!(
                out,
                "OK {} fetches={}/{} rounds={} wall_us={:.1}",
                report.answers.len(),
                report.unique_fetches,
                report.total_interest,
                report.rounds,
                wall_s * 1e6
            );
            for (qi, answers) in report.answers.iter().enumerate() {
                let _ = write!(out, " q{qi}=");
                write_neighbors(out, answers, ',');
            }
        }
        Some(other) => return Err(format!("unknown request {other:?}")),
        None => return Err("empty request".into()),
    }
    Ok(Control::None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::TreeMeta;
    use sqda_geom::prop::len;
    use sqda_geom::rng::Rng;
    use sqda_rstar::decluster::ProximityIndex;
    use sqda_rstar::RStarConfig;
    use std::io::BufRead;
    use std::path::PathBuf;

    fn build_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqda-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(FileStore::create(&dir, 4, 100, 1024, 3).unwrap());
        let mut tree = RStarTree::create(
            store.clone(),
            RStarConfig::with_page_size(2, 1024),
            Box::new(ProximityIndex),
        )
        .unwrap();
        for i in 0..200u64 {
            tree.insert(Point::new(vec![(i % 19) as f64, (i % 13) as f64]), i)
                .unwrap();
        }
        store.sync().unwrap();
        TreeMeta {
            root: tree.root_page().as_raw(),
            dim: 2,
            page_size: 1024,
            decluster: "pi".into(),
        }
        .save(&dir)
        .unwrap();
        dir
    }

    fn test_context(tree: &RStarTree<FileStore>) -> ExplainContext {
        ExplainContext::measure(
            tree,
            SystemParams::with_disks(tree.store().num_disks()),
            false,
        )
    }

    fn request_line(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        req: &str,
    ) -> String {
        // One `write` per request: split in two, the client's own Nagle
        // holds the newline back until the server's delayed ACK.
        stream.write_all(format!("{req}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn serves_queries_over_tcp_until_shutdown() {
        let dir = build_store("tcp");
        let (tree, _) = open_tree(dir.to_str().unwrap()).unwrap();
        let expected = sqda_core::best_first_knn(&tree, &Point::new(vec![5.0, 5.0]), 3).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let live = Arc::new(LiveTelemetry::new(tree.store().num_disks()));
        std::thread::scope(|s| {
            let server = s.spawn(|| run_server(&tree, listener, live.clone(), test_context(&tree)));

            let mut a = TcpStream::connect(addr).unwrap();
            let mut ra = BufReader::new(a.try_clone().unwrap());
            assert_eq!(request_line(&mut a, &mut ra, "PING"), "PONG");
            let ok = request_line(&mut a, &mut ra, "QUERY 5.0,5.0 3 crss");
            let words: Vec<&str> = ok.split_whitespace().collect();
            assert_eq!(words[0], "OK");
            assert_eq!(words[1], "3");
            for (w, n) in words[2..].iter().zip(&expected) {
                assert_eq!(
                    *w,
                    format!("{}:{:.6}", n.object.0, n.dist()),
                    "full reply: {ok}"
                );
            }
            // Malformed requests keep the connection alive.
            assert!(request_line(&mut a, &mut ra, "QUERY 1.0 2").starts_with("ERR"));
            assert!(request_line(&mut a, &mut ra, "QUERY 1.0,2.0 0").starts_with("ERR"));
            assert!(request_line(&mut a, &mut ra, "QUERY 1.0,2.0 2 zzz").starts_with("ERR"));
            assert!(request_line(&mut a, &mut ra, "NONSENSE").starts_with("ERR"));
            let stats = request_line(&mut a, &mut ra, "STATS");
            assert!(stats.starts_with("STATS queries=1 "), "{stats}");
            assert!(stats.contains(" cache_hit_ratio="), "{stats}");
            assert!(stats.contains(" degraded_reads=0 "), "{stats}");
            assert!(stats.contains(" window_qps="), "{stats}");
            assert!(stats.contains(" reads_per_disk="), "{stats}");
            // PR 9's byte-budget cache fields append after the per-disk
            // breakdown (zeros here: the test tree carries no cache).
            assert!(stats.contains(" resident_bytes=0"), "{stats}");
            assert!(stats.contains(" byte_budget=0"), "{stats}");
            // The backend's caller/worker split comes last, and counts
            // no more than the store read.
            let field = |key: &str| -> u64 {
                let (_, rest) = stats
                    .split_once(key)
                    .unwrap_or_else(|| panic!("{key} in {stats}"));
                rest.split(' ').next().unwrap().parse().unwrap()
            };
            assert!(field(" reads=") > 0, "{stats}");
            assert!(field(" inline_reads=") <= field(" reads="), "{stats}");

            // EXPLAIN runs the query and replies with its one-line JSON
            // introspection record: observed work and timing next to
            // the analytical prediction and the residuals.
            let reply = request_line(&mut a, &mut ra, "EXPLAIN 5.0,5.0 3 crss");
            assert!(reply.starts_with('{'), "{reply}");
            let doc = sqda_obs::json::parse(&reply).unwrap();
            assert_eq!(doc.get("algo").and_then(|v| v.as_str()), Some("CRSS"));
            assert_eq!(doc.get("k").and_then(|v| v.as_u64()), Some(3));
            let observed = doc
                .get("observed_accesses")
                .and_then(|v| v.as_u64())
                .unwrap();
            assert!(observed > 0, "{reply}");
            let predicted = doc
                .get("predicted_accesses")
                .and_then(|v| v.as_f64())
                .unwrap();
            assert!(predicted >= 1.0, "{reply}");
            let residual = doc
                .get("residual_accesses")
                .and_then(|v| v.as_f64())
                .unwrap();
            assert!(
                (residual - (observed as f64 - predicted)).abs() < 1e-9,
                "{reply}"
            );
            assert_eq!(
                doc.get("calibrated"),
                Some(&sqda_obs::json::Value::Bool(false))
            );
            assert!(doc.get("level_accesses").and_then(|v| v.as_arr()).is_some());
            assert!(request_line(&mut a, &mut ra, "EXPLAIN 1.0 2").starts_with("ERR"));
            assert!(request_line(&mut a, &mut ra, "EXPLAIN").starts_with("ERR"));

            // Shared-traversal batch: two queries through one descent;
            // q0's answers match the solo ground truth exactly.
            let batch = request_line(&mut a, &mut ra, "BATCH 5.0,5.0;1.0,2.0 3");
            assert!(batch.starts_with("OK 2 fetches="), "{batch}");
            assert!(batch.contains(" rounds="), "{batch}");
            let q0: Vec<String> = expected
                .iter()
                .map(|n| format!("{}:{:.6}", n.object.0, n.dist()))
                .collect();
            assert!(batch.contains(&format!(" q0={}", q0.join(","))), "{batch}");
            assert!(request_line(&mut a, &mut ra, "BATCH 1.0,2.0 0").starts_with("ERR"));
            assert!(request_line(&mut a, &mut ra, "BATCH 1.0 3").starts_with("ERR"));
            assert!(request_line(&mut a, &mut ra, "BATCH").starts_with("ERR"));

            // A second concurrent client.
            let mut b = TcpStream::connect(addr).unwrap();
            let mut rb = BufReader::new(b.try_clone().unwrap());
            assert!(request_line(&mut b, &mut rb, "QUERY 1.0,2.0 5").starts_with("OK 5 "));
            assert_eq!(request_line(&mut b, &mut rb, "QUIT"), "BYE");

            assert_eq!(request_line(&mut a, &mut ra, "SHUTDOWN"), "BYE");
            server.join().unwrap().unwrap();
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reads a multi-line `METRICS` reply up to and including the
    /// `# EOF` terminator line.
    fn request_metrics(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> String {
        stream.write_all(b"METRICS\n").unwrap();
        let mut text = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let done = line.trim_end() == "# EOF";
            text.push_str(&line);
            if done {
                return text;
            }
        }
    }

    #[test]
    fn metrics_trace_and_slow_log_over_loopback() {
        let dir = build_store("metrics");
        let trace_path = dir.join("trace").join("flight.json");
        let slow_path = dir.join("slow.jsonl");
        let (tree, _) = open_tree(dir.to_str().unwrap()).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let live = Arc::new(
            LiveTelemetry::new(tree.store().num_disks())
                .with_flight_recorder(4096)
                // Threshold 0: every completed query is "slow".
                .with_slow_query_log(&slow_path, 0.0)
                .unwrap(),
        );
        std::thread::scope(|s| {
            let server = s.spawn(|| run_server(&tree, listener, live.clone(), test_context(&tree)));

            let mut a = TcpStream::connect(addr).unwrap();
            let mut ra = BufReader::new(a.try_clone().unwrap());
            assert!(request_line(&mut a, &mut ra, "QUERY 5.0,5.0 3").starts_with("OK 3 "));
            assert!(request_line(&mut a, &mut ra, "QUERY 1.0,2.0 5").starts_with("OK 5 "));
            // An explained query feeds the drift windows and, at
            // threshold 0, writes an explain-enriched slow-log entry.
            assert!(request_line(&mut a, &mut ra, "EXPLAIN 5.0,5.0 3").starts_with('{'));

            // METRICS: a lint-clean Prometheus exposition over live data.
            let text = request_metrics(&mut a, &mut ra);
            let problems = sqda_obs::prometheus::lint(&text);
            assert!(problems.is_empty(), "exposition lint: {problems:?}");
            assert!(text.contains("sqda_queries_completed_total 3"), "{text}");
            assert!(text.contains("sqda_response_ms_count 3"), "{text}");
            assert!(text.contains("sqda_disk_reads_total{disk=\"0\"}"), "{text}");
            assert!(text.contains("sqda_cache_hits_total"), "{text}");
            assert!(text.contains("sqda_backend_inline_reads_total "), "{text}");
            assert!(text.contains("sqda_model_residual_accesses "), "{text}");
            assert!(text.contains("sqda_model_residual_latency "), "{text}");

            // The connection survives a multi-line reply.
            assert_eq!(request_line(&mut a, &mut ra, "PING"), "PONG");

            // DUMP-TRACE writes a Perfetto document from the flight ring,
            // under the store's trace directory.
            let reply = request_line(&mut a, &mut ra, "DUMP-TRACE flight.json");
            assert!(reply.starts_with("OK trace events="), "{reply}");
            assert!(!reply.starts_with("OK trace events=0 "), "{reply}");
            let shown = format!(" path={}", trace_path.display());
            assert!(reply.ends_with(&shown), "{reply}");

            assert_eq!(request_line(&mut a, &mut ra, "SHUTDOWN"), "BYE");
            server.join().unwrap().unwrap();
        });
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(
            trace.contains("\"name\":\"query\""),
            "flight ring kept query spans: {trace}"
        );
        let slow = std::fs::read_to_string(&slow_path).unwrap();
        let lines: Vec<&str> = slow.lines().collect();
        assert_eq!(lines.len(), 3, "{slow}");
        let first = sqda_obs::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("algo").and_then(|v| v.as_str()), Some("FRONTIER"));
        assert!(first.get("response_ms").and_then(|v| v.as_f64()).is_some());
        assert!(first.get("explain").is_none(), "{slow}");
        // The explained query's entry embeds its full introspection
        // record.
        let explained = sqda_obs::json::parse(lines[2]).unwrap();
        let record = explained.get("explain").expect("explain-enriched entry");
        assert!(
            record
                .get("observed_accesses")
                .and_then(|v| v.as_u64())
                .unwrap()
                > 0,
            "{slow}"
        );
        assert!(record.get("predicted_accesses").is_some(), "{slow}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Serves a fresh store to `client`, then shuts the server down.
    fn with_server(name: &str, client: impl FnOnce(SocketAddr)) {
        with_server_under(name, PollRule::serving(), |addr, _| client(addr));
    }

    /// What `respond` answers each request line in process: the reply a
    /// served connection must carry byte for byte.
    type Expect<'a> = &'a (dyn Fn(&str) -> String + Sync);

    /// Serves a fresh store under `poll` to `client`, with an in-process
    /// twin of the server over the same tree for its expected replies,
    /// then shuts the server down.
    fn with_server_under(name: &str, poll: PollRule, client: impl FnOnce(SocketAddr, Expect)) {
        let dir = build_store(name);
        let (tree, _) = open_tree(dir.to_str().unwrap()).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let live = Arc::new(LiveTelemetry::new(tree.store().num_disks()));
        let twin = twin_server(&tree);
        let expect = |request: &str| {
            let mut out = String::new();
            respond(request, &twin, &mut QueryScratch::new(), &mut out);
            out
        };
        std::thread::scope(|s| {
            let server = s.spawn(|| {
                let ctx = test_context(&tree);
                serve_connections(&tree, listener, live.clone(), ctx, poll)
            });
            // A failed client assertion must still stop the server, or
            // the scope would wait for it forever.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| client(addr, &expect)));
            let (mut c, mut rc) = connect(addr);
            assert_eq!(request_line(&mut c, &mut rc, "SHUTDOWN"), "BYE");
            server.join().unwrap().unwrap();
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A plain client: Nagle left on, as `nc` or a Python socket has it.
    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn sequential_round_trips_do_not_stall() {
        // A reply that leaves as two segments waits ~44 ms for the
        // client's delayed ACK: 200 round trips then take >= 8.8 s.
        with_server("no-stall", |addr| {
            let (mut c, mut rc) = connect(addr);
            for (req, want) in [("PING", "PONG"), ("QUERY 5.0,5.0 3", "OK 3 ")] {
                let started = std::time::Instant::now();
                for _ in 0..200 {
                    let reply = request_line(&mut c, &mut rc, req);
                    assert!(reply.starts_with(want), "{req}: {reply}");
                }
                let took = started.elapsed();
                assert!(took.as_secs_f64() < 2.0, "200 x {req} took {took:?}");
            }
        });
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let requests: Vec<String> = (0..500)
            .map(|i| match i % 5 {
                0 => "PING".to_string(),
                1 => format!("QUERY {}.5,{}.25 {}", i % 19, i % 13, 1 + i % 7),
                2 => format!("QUERY {}.0,{}.0 3 bbss", i % 17, i % 11),
                3 => format!("QUERY {}.0 3", i % 7),
                _ => format!("BOGUS {i}"),
            })
            .collect();
        with_server("pipeline", |addr| {
            let (mut one, mut r_one) = connect(addr);
            let sequential: Vec<String> = requests
                .iter()
                .map(|req| request_line(&mut one, &mut r_one, req))
                .collect();

            let (mut burst, mut r_burst) = connect(addr);
            burst
                .write_all((requests.join("\n") + "\n").as_bytes())
                .unwrap();
            for (req, want) in requests.iter().zip(&sequential) {
                let mut got = String::new();
                r_burst.read_line(&mut got).unwrap();
                assert_eq!(got.trim_end_matches('\n'), want, "reply to {req:?}");
            }

            // A multi-line reply mid-pipeline keeps its framing.
            burst
                .write_all(b"PING\nMETRICS\n\nQUERY 5.0,5.0 1\n")
                .unwrap();
            let mut line = String::new();
            r_burst.read_line(&mut line).unwrap();
            assert_eq!(line, "PONG\n");
            loop {
                line.clear();
                r_burst.read_line(&mut line).unwrap();
                assert!(!line.starts_with("OK") && !line.is_empty(), "{line}");
                if line == "# EOF\n" {
                    break;
                }
            }
            line.clear();
            r_burst.read_line(&mut line).unwrap();
            assert!(line.starts_with("OK 1 "), "{line}");
        });
    }

    #[test]
    fn shutdown_does_not_wait_for_idle_clients() {
        shutdown_closes_an_idle_client("idle-shutdown", PollRule::serving());
    }

    #[test]
    fn shutdown_reaches_a_handler_that_is_polling() {
        // After its PONG the idle client's handler polls for up to 30 s.
        let rule = PollRule {
            window: Duration::from_secs(30),
            cores: 64,
        };
        shutdown_closes_an_idle_client("polling-shutdown", rule);
    }

    /// `SHUTDOWN` on one connection stops the server within 2 s while
    /// another client, answered once, sits idle, and that client reads
    /// end of input.
    fn shutdown_closes_an_idle_client(name: &str, poll: PollRule) {
        let dir = build_store(name);
        let (tree, _) = open_tree(dir.to_str().unwrap()).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let live = Arc::new(LiveTelemetry::new(tree.store().num_disks()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let ctx = test_context(&tree);
                let result = serve_connections(&tree, listener, live.clone(), ctx, poll);
                done_tx.send(result.is_ok()).unwrap();
            });
            let (mut idle, mut r_idle) = connect(addr);
            assert_eq!(request_line(&mut idle, &mut r_idle, "PING"), "PONG");
            let (mut a, mut ra) = connect(addr);
            assert_eq!(request_line(&mut a, &mut ra, "SHUTDOWN"), "BYE");
            let stopped = done_rx.recv_timeout(std::time::Duration::from_secs(2));
            // The idle client sees its connection closed, not a hang.
            let mut rest = String::new();
            let closed = stopped.is_ok() && r_idle.read_line(&mut rest).is_ok_and(|n| n == 0);
            // Let a server that failed the check go, so the scope ends.
            drop((idle, r_idle));
            assert_eq!(stopped, Ok(true), "server still up 2 s after BYE");
            assert!(closed, "idle client was left open: {rest:?}");
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_lines_are_bounded_and_must_be_utf8() {
        with_server("line-cap", |addr| {
            // 1 MiB without a newline: refused after MAX_LINE bytes, and
            // the connection is closed (the write may see the reset).
            let (mut big, mut r_big) = connect(addr);
            let _ = big.write_all(&vec![b'a'; 1 << 20]);
            let mut reply = String::new();
            r_big.read_line(&mut reply).unwrap();
            assert_eq!(reply, "ERR line too long\n");
            // ...while everyone else is still served.
            let (mut c, mut rc) = connect(addr);
            assert_eq!(request_line(&mut c, &mut rc, "PING"), "PONG");

            // The longest legal line is answered as a request.
            let mut longest = vec![b' '; MAX_LINE];
            longest[..4].copy_from_slice(b"PING");
            longest.push(b'\n');
            c.write_all(&longest).unwrap();
            reply.clear();
            rc.read_line(&mut reply).unwrap();
            assert_eq!(reply, "PONG\n");

            // Invalid UTF-8 is an error reply, not a dropped connection.
            c.write_all(b"QUERY \xff\xfe 3\n").unwrap();
            reply.clear();
            rc.read_line(&mut reply).unwrap();
            assert!(reply.starts_with("ERR "), "{reply}");
            assert_eq!(request_line(&mut c, &mut rc, "PING"), "PONG");
        });
    }

    #[test]
    fn query_operands_are_bounded() {
        with_server("operand-caps", |addr| {
            let (mut c, mut rc) = connect(addr);
            let mut ask = |request: &str| request_line(&mut c, &mut rc, request);
            // Coordinates whose squared distances overflow used to be
            // answered with `OK 3 0:inf 1:inf 2:inf` — three arbitrary ids.
            for request in [
                "QUERY 1e200,1e200 3",
                "QUERY 0.5,-1.1e150 3 bbss",
                "EXPLAIN 1e200,0.5 3",
                "BATCH 0.5,0.5;1e200,0.5 3",
            ] {
                assert_eq!(ask(request), "ERR coordinate out of range", "{request}");
            }
            // `k` is the client's number: it must not size anything
            // before it is checked.
            for request in [
                "QUERY 0.5,0.5 100000000",
                "EXPLAIN 0.5,0.5 65537",
                "BATCH 0.5,0.5;0.6,0.6 100000000",
            ] {
                assert_eq!(ask(request), "ERR k too large", "{request}");
            }
            // So is the number of points in a `BATCH`.
            let batch = |points: usize| format!("BATCH {} 2", vec!["0.5,0.5"; points].join(";"));
            assert_eq!(ask(&batch(MAX_BATCH + 1)), "ERR batch too large");
            let widest = ask(&batch(MAX_BATCH));
            assert!(
                widest.starts_with(&format!("OK {MAX_BATCH} ")),
                "{widest:.80}"
            );
            // The largest legal `k` answers with everything there is.
            let everything = ask(&format!("QUERY 0.5,0.5 {MAX_K}"));
            let found: usize = everything
                .strip_prefix("OK ")
                .and_then(|rest| rest.split(' ').next()?.parse().ok())
                .unwrap_or_else(|| panic!("{everything:.80}"));
            assert!(0 < found && found < MAX_K, "{found}");
            assert_eq!(ask("QUERY 1e150,-1e150 2").split(' ').nth(1), Some("2"));
        });
    }

    #[test]
    fn dump_trace_writes_only_under_the_store() {
        let dir = build_store("trace-names");
        let outside = dir.parent().unwrap().join("sqda-serve-escaped.json");
        let _ = std::fs::remove_file(&outside);
        let (tree, _) = open_tree(dir.to_str().unwrap()).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let live = Arc::new(LiveTelemetry::new(tree.store().num_disks()).with_flight_recorder(64));
        std::thread::scope(|s| {
            let server = s.spawn(|| run_server(&tree, listener, live.clone(), test_context(&tree)));
            let (mut c, mut rc) = connect(addr);
            let escape = format!("DUMP-TRACE {}", outside.display());
            for request in [
                escape.as_str(),
                "DUMP-TRACE ../sqda-serve-escaped.json",
                "DUMP-TRACE ..",
                "DUMP-TRACE .",
                "DUMP-TRACE trace/x.json",
                "DUMP-TRACE x.json/",
                "DUMP-TRACE x\0.json",
            ] {
                let reply = request_line(&mut c, &mut rc, request);
                assert!(reply.starts_with("ERR "), "{request:?}: {reply}");
            }
            let usage = request_line(&mut c, &mut rc, "DUMP-TRACE");
            assert!(usage.starts_with("ERR usage: "), "{usage}");
            // A bare name still works, and the reply gives the full path.
            let reply = request_line(&mut c, &mut rc, "DUMP-TRACE ok.json");
            let want = dir.join("trace").join("ok.json");
            assert!(
                reply.ends_with(&format!(" path={}", want.display())),
                "{reply}"
            );
            assert_eq!(request_line(&mut c, &mut rc, "SHUTDOWN"), "BYE");
            server.join().unwrap().unwrap();
        });
        assert!(
            !outside.exists(),
            "a refused name wrote {}",
            outside.display()
        );
        let written: Vec<_> = std::fs::read_dir(dir.join("trace"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(written, ["ok.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An in-process server over `tree` that no socket reaches.
    fn twin_server(tree: &RStarTree<FileStore>) -> Server<'_> {
        let live = Arc::new(LiveTelemetry::new(tree.store().num_disks()));
        let addr = SocketAddr::from(([127, 0, 0, 1], 0));
        Server::new(tree, live, test_context(tree), addr, PollRule::serving()).unwrap()
    }

    /// The rule the loopback tests poll under: a window a test client
    /// answers within even on a loaded machine, and cores to spare.
    const POLLING: PollRule = PollRule {
        window: Duration::from_millis(2),
        cores: 64,
    };

    /// `STATS polled_requests=`, asked on a connection of its own.
    fn polled_requests(addr: SocketAddr) -> u64 {
        let (mut c, mut rc) = connect(addr);
        let stats = request_line(&mut c, &mut rc, "STATS");
        let (_, n) = stats.split_once(" polled_requests=").expect(&stats);
        n.split(' ').next().unwrap().parse().unwrap()
    }

    /// The `i`-th of a mix of queries, algorithms and refusals.
    fn mixed_request(i: usize) -> String {
        match i % 4 {
            0 => "PING".to_string(),
            1 => format!("QUERY {}.5,{}.25 {}", i % 19, i % 13, 8 + i % 5),
            2 => format!("QUERY {}.0,{}.0 9 crss", i % 17, i % 11),
            _ => format!("QUERY {}.0 3", i % 7),
        }
    }

    #[test]
    fn the_poll_gate_wants_a_prompt_peer_and_a_free_core() {
        let us = Duration::from_micros;
        let rule = PollRule {
            window: us(20),
            cores: 2,
        };
        assert!(rule.polls(Duration::ZERO, 1), "a first request, alone");
        assert!(rule.polls(us(20), 1), "a gap of exactly the window");
        assert!(!rule.polls(us(21), 1), "a peer slower than the window");
        assert!(!rule.polls(us(5), 2), "as many busy connections as cores");
        assert!(!rule.polls(us(5), 3));
        assert!(PollRule { cores: 4, ..rule }.polls(us(5), 3));
        // The count includes the asking connection: one core never polls.
        assert!(!PollRule { cores: 1, ..rule }.polls(Duration::ZERO, 1));
    }

    #[test]
    fn activity_counts_each_connection_once_per_tick() {
        let activity = Activity::new();
        let at = |us: u64| activity.epoch + Duration::from_micros(us);
        let (mut a, mut b) = (0, 0);
        assert_eq!(activity.active(at(0)), 0);
        activity.note(at(10), &mut a);
        activity.note(at(20), &mut a);
        assert_eq!(activity.active(at(30)), 1, "one connection, noted twice");
        activity.note(at(40), &mut b);
        assert_eq!(activity.active(at(50)), 2);
        // Early in the next tick the last one's count still stands...
        activity.note(at(1_100), &mut a);
        assert_eq!(activity.active(at(1_200)), 2);
        // ...and a tick later only what was noted since counts.
        assert_eq!(activity.active(at(2_300)), 1);
        assert_eq!(activity.active(at(3_500)), 0);
        // A clock two ticks behind does not wipe the newer tick's count
        // in the word they share.
        let mut c = 0;
        activity.note(at(3_600), &mut b);
        activity.note(at(1_500), &mut c);
        assert_eq!(activity.active(at(3_700)), 1);
    }

    #[test]
    fn a_polled_burst_past_the_flush_size_is_answered_in_order() {
        let requests: Vec<String> = (0..3000).map(mixed_request).collect();
        with_server_under("poll-burst", POLLING, |addr, expect| {
            let want: Vec<String> = requests.iter().map(|r| expect(r)).collect();
            let bytes: usize = want.iter().map(|w| w.len() + 1).sum();
            assert!(bytes > 2 * REPLY_FLUSH_BYTES, "{bytes} reply bytes");
            let (mut c, mut rc) = connect(addr);
            // A closed loop first, so the handler is polling when the
            // burst lands.
            for (req, want) in requests.iter().zip(&want).take(50) {
                assert_eq!(&request_line(&mut c, &mut rc, req), want);
            }
            let burst = requests.join("\n") + "\n";
            std::thread::scope(|s| {
                s.spawn(|| (&c).write_all(burst.as_bytes()).unwrap());
                for (req, want) in requests.iter().zip(&want) {
                    let mut got = String::new();
                    rc.read_line(&mut got).unwrap();
                    assert_eq!(got.strip_suffix('\n'), Some(want.as_str()), "{req:?}");
                }
            });
            assert!(polled_requests(addr) > 0, "the handler never polled");
        });
    }

    #[test]
    fn a_client_pausing_past_the_window_is_still_answered() {
        with_server_under("poll-pause", POLLING, |addr, expect| {
            let (mut c, mut rc) = connect(addr);
            for i in 0..60 {
                if i % 10 == 9 {
                    std::thread::sleep(POLLING.window * 3);
                }
                let req = mixed_request(i);
                assert_eq!(request_line(&mut c, &mut rc, &req), expect(&req), "{req:?}");
            }
            assert!(polled_requests(addr) > 0, "the handler never polled");
        });
    }

    #[test]
    fn two_busy_connections_on_two_cores_close_the_gate() {
        let rule = PollRule {
            cores: 2,
            ..POLLING
        };
        with_server_under("poll-two", rule, |addr, expect| {
            let mut clients = [connect(addr), connect(addr)];
            for (c, rc) in &mut clients {
                assert_eq!(request_line(c, rc, "PING"), "PONG");
            }
            let before = polled_requests(addr);
            const EACH: u64 = 400;
            std::thread::scope(|s| {
                for (c, rc) in &mut clients {
                    s.spawn(move || {
                        for i in 0..EACH as usize {
                            let req = mixed_request(i);
                            assert_eq!(request_line(c, rc, &req), expect(&req), "{req:?}");
                        }
                    });
                }
            });
            // Only while one client is off its core can the other poll.
            let polled = polled_requests(addr) - before;
            assert!(
                polled < EACH / 2,
                "{polled} of {} requests polled",
                2 * EACH
            );
        });
    }

    /// A request line drawn from every verb, with operands that are
    /// random, truncated or malformed: bad numbers and `k`s, non-finite
    /// and out-of-range coordinates, trailing words, non-ASCII text.
    fn wire_request(rng: &mut Rng, size: usize) -> String {
        fn pick<'a>(rng: &mut Rng, from: &[&'a str]) -> &'a str {
            from[rng.gen_range(0..from.len())]
        }
        fn coords(rng: &mut Rng, size: usize) -> String {
            const ODD: [&str; 16] = [
                "1e200",
                "-1.1e150",
                "1e150",
                "NaN",
                "inf",
                "-inf",
                "1e400",
                "1e-320",
                "-0",
                "0x10",
                "",
                "abc",
                "½",
                "1,",
                "+.5",
                "18446744073709551616",
            ];
            let n = len(rng, size, 0..5);
            let coord = |rng: &mut Rng| match rng.gen_bool(0.6) {
                true => format!("{}", rng.gen_range(-2.0..20.0)),
                false => pick(rng, &ODD).to_string(),
            };
            (0..n).map(|_| coord(rng)).collect::<Vec<_>>().join(",")
        }
        const VERBS: [&str; 14] = [
            "QUERY",
            "QUERY",
            "EXPLAIN",
            "BATCH",
            "BATCH",
            "PING",
            "STATS",
            "METRICS",
            "DUMP-TRACE",
            "QUIT",
            "SHUTDOWN",
            "query",
            "NOPE",
            "ÉTAT",
        ];
        let verb = pick(rng, &VERBS);
        let mut words = vec![verb.to_string()];
        if rng.gen_bool(0.9) {
            match verb {
                "QUERY" | "EXPLAIN" | "query" => words.push(coords(rng, size)),
                "BATCH" => {
                    let n = len(rng, size, 0..6);
                    words.push(
                        (0..n)
                            .map(|_| coords(rng, size))
                            .collect::<Vec<_>>()
                            .join(";"),
                    );
                }
                "DUMP-TRACE" => {
                    words.push(pick(rng, &["t.json", "../t", "a/b", ".", "é.json"]).into())
                }
                _ => {}
            }
        }
        if matches!(verb, "QUERY" | "EXPLAIN" | "BATCH") && rng.gen_bool(0.9) {
            let big = (MAX_K + 1).to_string();
            let small = rng.gen_range(1..20u64).to_string();
            let ks = [
                "0",
                big.as_str(),
                small.as_str(),
                small.as_str(),
                "-1",
                "ten",
                "3.5",
                "1e3",
            ];
            words.push(pick(rng, &ks).into());
            if rng.gen_bool(0.5) {
                let algos = [
                    "crss", "bbss", "fpss", "woptss", "frontier", "CRSS", "astar",
                ];
                words.push(pick(rng, &algos).into());
            }
        }
        if rng.gen_bool(0.2) {
            words.push(pick(rng, &["extra", "ü", "日本", "\u{feff}", "1", ";"]).into());
        }
        let mut line = words.join(" ");
        if rng.gen_bool(0.2) {
            let mut cut = rng.gen_range(0..line.len() + 1);
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line.truncate(cut);
        }
        line
    }

    #[test]
    fn every_request_line_gets_exactly_one_reply() {
        let dir = build_store("fuzz");
        let (tree, _) = open_tree(dir.to_str().unwrap()).unwrap();
        let server = twin_server(&tree);
        let lines = |rng: &mut Rng, size: usize| -> Vec<String> {
            (0..len(rng, size, 1..9))
                .map(|_| wire_request(rng, size))
                .collect()
        };
        sqda_geom::prop::check("wire_requests_get_one_reply", 300, lines, |lines| {
            // One connection's worth of lines over one scratch.
            let mut scratch = QueryScratch::new();
            for line in lines {
                // As the connection handler hands lines over.
                let request = line.trim();
                if request.is_empty() {
                    continue;
                }
                let mut out = String::new();
                respond(request, &server, &mut scratch, &mut out);
                assert!(!out.is_empty(), "{request:?}: no reply");
                if request == "METRICS" {
                    assert!(out.ends_with("\n# EOF"), "{request:?}: {out}");
                    assert!(!out.contains("\n\n"), "{request:?}: {out}");
                } else {
                    assert!(!out.contains('\n'), "{request:?}: {out:?}");
                }
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}

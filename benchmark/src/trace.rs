//! The benchmark's own tracing: spans recorded around the calls into each
//! layer, from decorators that live here and not in the program. Spans
//! are kept in memory and written out as a Chrome `trace_event` file when
//! the run ends. With the tracer off the decorators delegate and take no
//! timestamps, which is how the price of tracing is measured.

use crate::proc::Res;
use sqda_core::{AccessMethod, IndexNode, QueryError};
use sqda_storage::{Bytes, IoBackend, PageId, Placement, ReadCompletion};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const ENGINE_RUN: &str = "core.engine_run";
pub const CACHE_PROBE: &str = "storage.cache_probe";
pub const DECODE: &str = "rstar.decode";
pub const BACKEND_WAIT: &str = "storage.backend_wait";

/// One span: `parent` indexes the span that caused it, spans of one
/// query share `query`. `arg` is the page id (probe, decode) or the batch
/// size (backend wait).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub query: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub arg: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Queue and service time of one backend read, and per round the wait
/// not explained by the slowest read (channel hand-off and wake-up).
#[derive(Default)]
pub struct ReadSamples {
    pub queue_ns: Vec<u64>,
    pub service_ns: Vec<u64>,
    pub handoff_ns: Vec<u64>,
}

const NO_ROOT: u32 = u32::MAX;

pub struct Tracer {
    origin: Instant,
    on: AtomicBool,
    /// Index of the open root span; children attach to it. One query is
    /// in flight at a time, so one slot is enough.
    root: AtomicU32,
    spans: Mutex<Vec<Span>>,
    pub reads: Mutex<ReadSamples>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            on: AtomicBool::new(false),
            root: AtomicU32::new(NO_ROOT),
            spans: Mutex::new(Vec::new()),
            reads: Mutex::new(ReadSamples::default()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as query `query` under a root span (when tracing is on).
    pub fn root<T>(&self, query: u32, f: impl FnOnce() -> T) -> T {
        if !self.is_on() {
            return f();
        }
        let index = {
            let mut spans = self.spans.lock().expect("tracer poisoned");
            spans.push(Span {
                name: ENGINE_RUN,
                query,
                parent: None,
                start_ns: 0,
                end_ns: 0,
                arg: 0,
            });
            (spans.len() - 1) as u32
        };
        self.root.store(index, Ordering::SeqCst);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.root.store(NO_ROOT, Ordering::SeqCst);
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans[index as usize].start_ns = start;
        spans[index as usize].end_ns = end;
        out
    }

    /// Records a finished child span of the open root.
    fn push_child(&self, name: &'static str, arg: u64, start_ns: u64, end_ns: u64) {
        let parent = self.root.load(Ordering::SeqCst);
        let mut spans = self.spans.lock().expect("tracer poisoned");
        let query = spans.get(parent as usize).map_or(0, |s| s.query);
        spans.push(Span {
            name,
            query,
            parent: (parent != NO_ROOT).then_some(parent),
            start_ns,
            end_ns,
            arg,
        });
    }

    /// Runs `f` under a child span of the open root.
    fn child<T>(&self, name: &'static str, arg: u64, f: impl FnOnce() -> T) -> T {
        if !self.is_on() {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        self.push_child(name, arg, start, self.now_ns());
        out
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("tracer poisoned"))
    }
}

/// Per-query totals derived from the span tree.
#[derive(Debug, Clone, Default)]
pub struct QueryLedger {
    pub engine_run_ns: u64,
    /// Root duration minus the part its children cover.
    pub engine_self_ns: u64,
    pub probe_ns: u64,
    pub probes: u64,
    pub decode_ns: u64,
    pub decodes: u64,
    pub wait_ns: u64,
    pub batches: u64,
    /// Pages probed, in visit order.
    pub pages: Vec<u64>,
}

/// Folds spans into one ledger per query and checks closure: the self
/// times of a query's spans must add up to its root span within 5 %.
/// Returns the ledgers and how many queries failed to close.
pub fn ledgers(spans: &[Span]) -> (Vec<QueryLedger>, usize) {
    let mut by_root: std::collections::BTreeMap<u32, QueryLedger> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && s.name == ENGINE_RUN {
            by_root.entry(i as u32).or_default().engine_run_ns = s.dur_ns();
        }
    }
    for s in spans {
        let Some(l) = s.parent.and_then(|p| by_root.get_mut(&p)) else {
            continue;
        };
        match s.name {
            CACHE_PROBE => {
                l.probe_ns += s.dur_ns();
                l.probes += 1;
                l.pages.push(s.arg);
            }
            DECODE => {
                l.decode_ns += s.dur_ns();
                l.decodes += 1;
            }
            BACKEND_WAIT => {
                l.wait_ns += s.dur_ns();
                l.batches += 1;
            }
            _ => {}
        }
    }
    let mut open = 0;
    let ledgers: Vec<QueryLedger> = by_root
        .into_values()
        .map(|mut l| {
            // Leaf spans have no children, so their self time is their
            // duration; the root's is what is left.
            let children = l.probe_ns + l.decode_ns + l.wait_ns;
            l.engine_self_ns = l.engine_run_ns.saturating_sub(children);
            let sum = l.engine_self_ns + children;
            if (sum as f64 - l.engine_run_ns as f64).abs() > 0.05 * l.engine_run_ns as f64 {
                open += 1;
            }
            l
        })
        .collect();
    (ledgers, open)
}

/// Writes spans as Chrome `trace_event` JSON (complete events, µs).
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> Res<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        write!(
            w,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"query\":{},\"parent\":{parent},\"arg\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.query,
            s.arg
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()?;
    Ok(())
}

/// [`AccessMethod`] decorator: spans around the node-cache probe and
/// around decode-and-insert, the two calls the engine makes per node.
pub struct TracedAm<'a, A: AccessMethod> {
    pub inner: &'a A,
    pub tracer: &'a Tracer,
}

impl<A: AccessMethod> AccessMethod for TracedAm<'_, A> {
    fn root_page(&self) -> PageId {
        self.inner.root_page()
    }

    fn num_disks(&self) -> u32 {
        self.inner.num_disks()
    }

    fn read_index_node(&self, page: PageId) -> Result<IndexNode, QueryError> {
        self.inner.read_index_node(page)
    }

    fn placement(&self, page: PageId) -> Result<Placement, QueryError> {
        self.inner.placement(page)
    }

    fn cached_index_node(&self, page: PageId) -> Result<Option<IndexNode>, QueryError> {
        self.tracer.child(CACHE_PROBE, page.as_raw(), || {
            self.inner.cached_index_node(page)
        })
    }

    fn decode_index_node(&self, page: PageId, bytes: Bytes) -> Result<IndexNode, QueryError> {
        self.tracer.child(DECODE, page.as_raw(), || {
            self.inner.decode_index_node(page, bytes)
        })
    }
}

/// [`IoBackend`] decorator: one span from `submit_batch` to the last
/// completion received, plus every completion's queue and service time.
/// It gathers the round before handing it on, so the engine decodes
/// after the round instead of as reads land; the program's own backend
/// is untouched.
pub struct TracedBackend {
    pub inner: Arc<dyn IoBackend>,
    pub tracer: Arc<Tracer>,
}

impl IoBackend for TracedBackend {
    fn submit_batch(&self, pages: &[PageId]) -> Receiver<ReadCompletion> {
        if !self.tracer.is_on() {
            return self.inner.submit_batch(pages);
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let start = self.tracer.now_ns();
        let inner_rx = self.inner.submit_batch(pages);
        let round: Vec<ReadCompletion> = (0..pages.len())
            .map_while(|_| inner_rx.recv().ok())
            .collect();
        let end = self.tracer.now_ns();
        self.tracer
            .push_child(BACKEND_WAIT, pages.len() as u64, start, end);
        let wait_ns = end - start;
        let mut reads = self.tracer.reads.lock().expect("tracer poisoned");
        let slowest = round
            .iter()
            .map(|c| c.queue_ns + c.service_ns)
            .max()
            .unwrap_or(0);
        reads.handoff_ns.push(wait_ns.saturating_sub(slowest));
        for completion in round {
            reads.queue_ns.push(completion.queue_ns);
            reads.service_ns.push(completion.service_ns);
            let _ = tx.send(completion);
        }
        rx
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_disks(&self) -> u32 {
        self.inner.num_disks()
    }
}

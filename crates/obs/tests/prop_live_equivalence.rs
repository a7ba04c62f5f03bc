//! Property: the live registry folds observations fed from any number of
//! threads into *exactly* what the sequential feed gives — not
//! statistically, byte-for-byte. Any partition of a set of finished
//! queries and disk reads across writer threads must snapshot to the same
//! counters and the same histogram buckets, counts, sums, minima and
//! maxima, and render the same Prometheus text.
//!
//! Observations are drawn integer-valued in ms so floating-point addition
//! is exact under every summation order; with that, the snapshot's JSON
//! and the exposition pin the whole registry.

use sqda_geom::prop::{self, check};
use sqda_geom::rng::Rng;
use sqda_obs::{LiveTelemetry, QueryExplain};
use std::sync::Mutex;

const DISKS: u32 = 3;
const MS: u64 = 1_000_000;

/// One draw fed to the registry: even draws are finished queries, odd
/// ones disk reads. Times span every `TIME_MS_BOUNDS` bucket including
/// the overflow bucket (the bounds top out at 5000 ms), depths every
/// `DEPTH_BOUNDS` bucket.
fn feed(t: &LiveTelemetry, v: u64) {
    let (v, query) = (v / 2, v.is_multiple_of(2));
    if query {
        t.observe_query(
            &QueryExplain {
                query: 0,
                algo: "CRSS".into(),
                k: 10,
                answers: 10,
                nodes: v % 40,
                batches: (v % 9) as u32,
                batch_sizes: vec![(v % 7) as u32 + 1; (v % 9) as usize],
                response_ms: (v % 6000) as f64,
                disk_queue_ms: (v / 7 % 300) as f64,
                disk_service_ms: (v / 3 % 2000) as f64,
                cpu_ms: (v % 11) as f64,
                ..QueryExplain::default()
            },
            false,
        );
    } else {
        let depth = (v / 5 % 200) as u32;
        t.observe_disk_read(
            (v % DISKS as u64) as u32,
            (v / 3 % 60) * MS,
            (v % 5500) * MS,
            depth,
        );
    }
}

/// A registry fed `chunks`, one writer thread per chunk.
fn fed(chunks: &[&[u64]]) -> LiveTelemetry {
    let t = LiveTelemetry::new(DISKS);
    std::thread::scope(|s| {
        for chunk in chunks {
            let t = &t;
            s.spawn(move || chunk.iter().for_each(|&v| feed(t, v)));
        }
    });
    t
}

/// The registry's snapshot JSON and its Prometheus text, with the lines
/// that depend on the wall clock or on which read came last (the depth
/// gauge) blanked.
fn rendered(t: &LiveTelemetry) -> (String, String) {
    let varying = [
        "sqda_uptime_seconds ",
        "sqda_window_qps ",
        "sqda_disk_utilization{",
        "sqda_disk_queue_depth{",
    ];
    let text = t
        .prometheus(None, None)
        .lines()
        .map(|l| match l.rsplit_once(' ') {
            Some((head, _)) if varying.iter().any(|p| l.starts_with(p)) => format!("{head} -\n"),
            _ => format!("{l}\n"),
        })
        .collect();
    (t.snapshot().to_json(), text)
}

const CASES: u32 = 64;

/// Up to `len.end - 1` draws from `0..below`, and a thread count in `threads`.
fn draws(
    rng: &mut Rng,
    size: usize,
    len: std::ops::Range<usize>,
    below: u64,
    threads: std::ops::Range<usize>,
) -> (Vec<u64>, usize) {
    let n = prop::len(rng, size, len);
    let samples = (0..n).map(|_| rng.gen_range(0..below)).collect();
    (samples, rng.gen_range(threads))
}

#[test]
fn threaded_histogram_equals_sequential() {
    let gen = |rng: &mut Rng, size| draws(rng, size, 1..800, 1_000_000, 1..8);
    check(
        "threaded_histogram_equals_sequential",
        CASES,
        gen,
        |(samples, threads)| {
            let sequential = LiveTelemetry::new(DISKS);
            samples.iter().for_each(|&v| feed(&sequential, v));
            let chunks: Vec<&[u64]> = samples.chunks(samples.len().div_ceil(threads)).collect();
            let threaded = fed(&chunks);
            assert_eq!(rendered(&threaded), rendered(&sequential));
            assert_eq!(
                threaded.snapshot().response_ms,
                sequential.snapshot().response_ms
            );
        },
    );
}

#[test]
fn partitioning_is_irrelevant() {
    let gen = |rng: &mut Rng, size| draws(rng, size, 1..300, 64, 1..6);
    check(
        "partitioning_is_irrelevant",
        CASES,
        gen,
        |(samples, split)| {
            // The same draws under two different thread partitions agree
            // with each other (small values: many equal observations).
            let one = fed(&[&samples]);
            let chunks: Vec<&[u64]> = samples.chunks(samples.len().div_ceil(split)).collect();
            assert_eq!(rendered(&fed(&chunks)), rendered(&one));
        },
    );
}

#[test]
fn concurrent_counter_adds_are_lossless() {
    let gen = |rng: &mut Rng, size| draws(rng, size, 1..200, 10_000, 1..8);
    check(
        "concurrent_counter_adds_are_lossless",
        CASES,
        gen,
        |(adds, threads)| {
            let t = LiveTelemetry::new(1);
            let ids = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for ch in adds.chunks(adds.len().div_ceil(threads)) {
                    let (t, ids) = (&t, &ids);
                    s.spawn(move || {
                        for &n in ch {
                            let id = t.begin_query();
                            t.observe_disk_read(0, 0, n, 0);
                            ids.lock().unwrap().push(id);
                        }
                    });
                }
            });
            let snap = t.snapshot();
            assert_eq!(snap.disks[&0].busy_ns.0, adds.iter().sum::<u64>());
            assert_eq!(snap.disks[&0].requests.0, adds.len() as u64);
            assert_eq!(snap.queries_arrived.0, adds.len() as u64);
            // Every pickup got its own serving id.
            let mut ids = ids.into_inner().unwrap();
            ids.sort_unstable();
            assert!(ids.iter().enumerate().all(|(i, &id)| id == i as u32));
        },
    );
}

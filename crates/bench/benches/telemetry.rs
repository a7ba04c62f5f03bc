//! Criterion benchmarks pinning the cost of the live telemetry plane:
//! the per-event primitives the query path pays (`LiveHistogram::observe`
//! under contention-free and multi-thread access, counter increments,
//! flight-ring pushes, the full `observe_query` fold), and the off-path
//! costs (snapshotting, Prometheus rendering). The serving overhead
//! contract is that the per-query cost stays in the tens-of-nanoseconds
//! range — orders of magnitude under a single page read.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sqda_obs::{Event, LiveCounter, LiveHistogram, LiveTelemetry, QueryObservation};
use std::sync::Arc;

/// Bucket bounds matching the registry's response-time histograms.
const TIME_MS_BOUNDS: &[f64] = &[
    0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
    5000.0,
];

fn observation(i: u64) -> QueryObservation<'static> {
    QueryObservation {
        query: i as u32,
        algo: "CRSS",
        k: 10,
        answers: 10,
        nodes: 14,
        batches: 3,
        response_ns: 2_000_000 + i * 1000,
        disk_queue_ns: 300_000,
        disk_service_ns: 1_200_000,
        cpu_ns: 80_000,
        failed: false,
    }
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/primitives");
    let counter = LiveCounter::new();
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    let hist = LiveHistogram::new(TIME_MS_BOUNDS);
    group.bench_function("histogram_observe", |b| {
        let mut v = 0.013f64;
        b.iter(|| {
            v = (v * 1.7) % 4000.0;
            hist.observe(black_box(v));
        })
    });
    group.finish();
}

fn bench_histogram_contended(c: &mut Criterion) {
    // Seven writer threads hammer the sharded histogram while the
    // benched thread observes: the sharding keeps the benched cost flat.
    let hist = Arc::new(LiveHistogram::new(TIME_MS_BOUNDS));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..7)
        .map(|t| {
            let hist = Arc::clone(&hist);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 0.1 + t as f64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    v = (v * 1.3) % 4000.0;
                    hist.observe(v);
                }
            })
        })
        .collect();
    c.bench_function("telemetry/histogram_observe_contended", |b| {
        let mut v = 0.013f64;
        b.iter(|| {
            v = (v * 1.7) % 4000.0;
            hist.observe(black_box(v));
        })
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

fn bench_query_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/query_path");
    let bare = LiveTelemetry::new(8);
    group.bench_function("observe_query", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            bare.observe_query(black_box(&observation(i)));
        })
    });
    group.bench_function("observe_disk_read", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            bare.observe_disk_read((i % 8) as u32, 300_000, 1_200_000, (i % 5) as u32);
        })
    });
    let flight = LiveTelemetry::new(8).with_flight_recorder(65_536);
    group.bench_function("flight_record", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            flight.record_event(i, black_box(Event::QueryArrive { query: i as u32 }));
        })
    });
    group.finish();
}

fn bench_exposition(c: &mut Criterion) {
    let t = LiveTelemetry::new(8).with_flight_recorder(4096);
    for i in 0..10_000u64 {
        t.begin_query();
        t.observe_disk_read((i % 8) as u32, 300_000, 1_200_000, (i % 5) as u32);
        t.observe_query(&observation(i));
    }
    let mut group = c.benchmark_group("telemetry/exposition");
    group.bench_function("snapshot", |b| b.iter(|| black_box(t.snapshot())));
    group.bench_function("prometheus_render", |b| {
        b.iter(|| black_box(t.prometheus(None, None)).len())
    });
    group.bench_function("window_stats", |b| b.iter(|| black_box(t.window_stats())));
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_histogram_contended,
    bench_query_path,
    bench_exposition
);
criterion_main!(benches);

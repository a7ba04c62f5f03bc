//! The metric and workload tables: the one place the names, units and
//! bounds live. `BENCHMARK.json` is `sqda_benchmark --manifest` verbatim,
//! so the file the driver reads cannot drift from what the runs print.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Repeats exactly for one seed and one build mode.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn time(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: None,
        exact: true,
    }
}

const fn higher(m: Metric) -> Metric {
    Metric {
        better: "higher",
        ..m
    }
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_hot",
        "sqda serve, 1M-point store, whole tree in the node cache: protocol, dispatch, cache probe and kernels do all the work, the backend none",
    ),
    (
        "serve_miss",
        "same store and queries, node cache about 1 % of the tree: every query pays submit_batch, worker hand-off, pread, decode and cache insert",
    ),
    (
        "build_external",
        "sqda build --external, 2M points in 123 sort runs and 2 merge passes: the write, sort, spill and sync side of storage and rstar",
    ),
    (
        "sim_multiuser",
        "the paper's experiment in process: 62173 places, incremental R*-tree, 10 disks, four algorithms at two Poisson rates through the simulator",
    ),
];

/// What a user of the system sees. Every workload reports every one:
/// `p50_us` and `ops_per_s` are about the workload's own operation (a
/// `QUERY` round trip, one external build, one simulated query — see the
/// README), so no value is ever 0.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("p50_us", "us", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("rss_mb", "MiB", "lower", 0.10),
    Metric {
        exact: true,
        ..e2e("store_bytes_per_point", "B", "lower", 0.05)
    },
];

/// Single layers, from the traced run. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    time("cli.p99_us", "us"),
    time("cli.ttfb_us", "us"),
    time("cli.reply_gap_us", "us"),
    time("cli.ping_rtt_us", "us"),
    time("cli.overhead_us", "us"),
    time("cli.reply_bytes", "B"),
    time("cli.build_csv_s", "s"),
    time("core.engine_run_us", "us"),
    time("core.engine_self_us", "us"),
    time("core.algo_us", "us"),
    time("core.dispatch_us", "us"),
    count("core.nodes_per_query", "count"),
    time("core.batches_per_query", "count"),
    count("core.woptss_nodes_per_query", "count"),
    count("core.nodes_over_woptss", "ratio"),
    time("core.sim_host_us_per_query", "us"),
    count("core.sim_nodes_per_query", "count"),
    count("core.sim_mean_response_ms", "ms"),
    time("storage.cache_probe_ns", "ns"),
    higher(time("storage.cache_hit_ratio", "ratio")),
    time("storage.reads_per_query", "count"),
    time("storage.backend_wait_us", "us"),
    time("storage.queue_ns", "ns"),
    time("storage.service_ns", "ns"),
    time("storage.handoff_us", "us"),
    time("storage.pread_floor_ns", "ns"),
    time("storage.disk_read_cv", "ratio"),
    time("storage.resident_bytes", "B"),
    count("storage.build_pages_written", "count"),
    count("storage.build_pages_read", "count"),
    time("storage.build_write_s", "s"),
    time("storage.build_read_s", "s"),
    time("storage.build_sync_s", "s"),
    count("storage.write_amp", "ratio"),
    time("rstar.decode_ns", "ns"),
    time("rstar.decode_floor_ns", "ns"),
    count("rstar.build_runs", "count"),
    count("rstar.build_merge_passes", "count"),
    count("rstar.build_spilled_pages", "count"),
    count("rstar.build_peak_scratch_pages", "count"),
    time("rstar.build_self_s", "s"),
    time("rstar.build_scaling", "ratio"),
    count("rstar.tree_height", "count"),
    count("rstar.tree_nodes", "count"),
    higher(count("rstar.avg_fill", "ratio")),
    time("geom.kernel_ns_per_entry", "ns"),
    count("geom.entries_per_query", "count"),
    time("geom.kernel_share", "ratio"),
    count("simkernel.events_per_query", "count"),
    time("simkernel.host_ns_per_event", "ns"),
    count("simkernel.disk_utilization", "ratio"),
    count("simkernel.bus_utilization", "ratio"),
    count("simkernel.cpu_utilization", "ratio"),
    time("obs.telemetry_us", "us"),
    time("obs.trace_overhead_pct", "%"),
];

/// `BENCHMARK.json`, generated.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n",
        workloads.join(",\n")
    ));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n")));
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        layers.join(",\n")
    ));
    s
}

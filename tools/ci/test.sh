#!/bin/bash
# CI `test`: the tier-1 line, locked and offline under an empty
# CARGO_HOME (so it passes only while the workspace takes no registry
# crate), then code lines per crate, one quick experiment sweep (5
# replications per data point) with its JSON checked — the hot-path
# counters, the external build's scale points, the fault sweep and the
# explain records — gated against the committed baseline with
# noise-aware bands and the build's scaling band and file-call budget,
# and rendered as the HTML dashboard, then a degraded-mode CLI run.
# Outputs: target/ci/test (the sweep and dashboard in target/ci/test/results).
set -euo pipefail
cd "$(dirname "$0")/../.."
OUT=target/ci/test
rm -rf "$OUT"
mkdir -p "$OUT/cargo-home"

CARGO_HOME="$PWD/$OUT/cargo-home" cargo build --release --locked --offline &&
  CARGO_HOME="$PWD/$OUT/cargo-home" cargo test -q --locked --offline

tools/loc.sh

R="$OUT/results"
target/release/experiment all --quick --out "$R" \
  --trace "$R/demo_trace.json" --metrics "$R/demo_metrics.json"
python3 - "$R" <<'PY'
import json, sys
r = sys.argv[1]

s = json.load(open(f'{r}/BENCH_summary.json'))
assert all(e['ok'] for e in s['experiments']), s['experiments']
assert s['headline'], s
# Exactly one fragment per experiment plus the headline run: a missing
# fragment, or a stale one that made it into the merge, fails here.
names = {e['name'] for e in s['experiments']} | {'headline'}
assert set(s['benches']) == names, sorted(set(s['benches']) ^ names)

b = json.load(open(f'{r}/BENCH_fault.json'))
assert b['bench'] == 'fault_sweep', b
assert b['config']['mirrored_reads'] is True
pts = b['points']
assert {p['algorithm'] for p in pts} == {'BBSS', 'FPSS', 'CRSS', 'WOPTSS'}
healthy = [p for p in pts if p['failed_disks'] == 0]
assert healthy and all(p['degraded_reads'] == 0 and p['aborted'] == 0 for p in healthy), healthy
worst = max(p['failed_disks'] for p in pts)
degraded = [p for p in pts if p['failed_disks'] == worst]
# Mirrored array: reads degrade to the shadow partner, nothing aborts.
assert all(p['aborted'] == 0 and p['completed'] > 0 for p in degraded), degraded
assert sum(p['degraded_reads'] for p in degraded) > 0, degraded
print('BENCH_fault OK:', len(pts), 'points, worst case', worst, 'failed disks')

b = json.load(open(f'{r}/BENCH_explain.json'))
assert b['bench'] == 'bench_explain', b
pts = b['points']
assert pts, b
ks = [p['k'] for p in pts]
assert ks == sorted(ks) and len(set(ks)) == len(ks), ks
for p in pts:
    assert p['predicted_accesses'] > 0 and p['observed_accesses'] > 0, p
    assert p['mean_abs_residual_accesses'] >= 0, p
    assert p['observed_response_ms'] > 0, p
cal = b['calibration']
assert cal['schema'] == 1 and cal['source'] == 'trace', cal
assert cal['samples'] > 0 and cal['mean_service_s'] > 0, cal
s = b['sample']
for key in ('algo', 'observed_accesses', 'predicted_accesses',
            'residual_accesses', 'level_accesses', 'reads_per_disk'):
    assert key in s, (key, s)
print('BENCH_explain OK:', len(pts), 'k points,', cal['samples'], 'calibration samples')
PY

python3 - "$R/BENCH_hotpath.json" <<'PY'
import json, sys
b = json.load(open(sys.argv[1]))
assert b['bench'] == 'hotpath', b
cfg = b['config']
for key in ('dim', 'page_size', 'objects', 'nodes', 'cache_pages', 'reps'):
    assert isinstance(cfg[key], int) and cfg[key] > 0, (key, cfg)
for key in ('decode_leaf_ns', 'decode_internal_ns',
            'warm_traversal_ns_per_node', 'knn_warm_ns_per_query',
            'batch_knn_b8_ns_per_query', 'crss_hot_query_ns',
            'crss_hot_nodes_per_query', 'crss_hot_rounds_per_query'):
    v = b[key]
    assert isinstance(v, (int, float)) and v > 0, (key, v)
# Every read of the hot query is free, so CRSS activates one branch per
# round: each round is exactly one page.
assert b['crss_hot_nodes_per_query'] == b['crss_hot_rounds_per_query'], b
# A hot CRSS query allocates what its reply owns and nothing else
# (exact counts; core/tests/hot_allocs.rs pins the same).
assert 0 < b['allocs_per_query'] <= 16, b['allocs_per_query']
assert 0 < b['bytes_per_query'] <= 4096, b['bytes_per_query']
# Kernel section: ns/entry for the three kernels at every specialised
# dimensionality measured and at dim 10 (runtime `dim`), all three
# batch sizes; batching a full node must not be slower per entry than
# one-at-a-time calls.
kern = b['kernel_ns_per_entry']
for kernel in ('dist_sq', 'min_dist', 'rect_metrics'):
    for dim in ('dim2', 'dim3', 'dim5', 'dim8', 'dim10'):
        cell = kern[kernel][dim]
        for batch in ('b1', 'b8', 'b64'):
            assert cell[batch] > 0, (kernel, dim, batch, cell)
        assert cell['b64'] <= cell['b1'], (kernel, dim, cell)
# The telemetry plane's per-event costs (DESIGN.md's overhead contract).
tel = b['telemetry_ns']
for op in ('observe_query', 'histogram_observe_contended', 'flight_record',
           'prometheus_render'):
    assert tel[op] > 0, (op, tel)
# The shared-traversal counters are exact over the deterministic tree:
# 8 clustered queries must share fetches.
assert b['batch_knn_unique_fetches'] < b['batch_knn_total_interest'], b
assert b['batch_knn_rounds'] >= 2, b
print('BENCH_hotpath OK:', b)
PY

python3 - "$R/BENCH_scale.json" <<'PY'
import json, sys
b = json.load(open(sys.argv[1]))
assert b['bench'] == 'bench_scale', b
cfg = b['config']
for key in ('disks', 'k', 'dim', 'page_size', 'run_capacity', 'cache_bytes', 'queries'):
    assert isinstance(cfg[key], int) and cfg[key] > 0, (key, cfg)
pts = b['points']
assert len(pts) >= 2, pts
ns = [p['n'] for p in pts]
assert ns == sorted(ns) and len(set(ns)) == len(ns), ns
for p in pts:
    # Every scale point must actually have gone out of core.
    assert p['runs'] > 1 and p['spilled_pages'] > 0, p
    assert p['merge_passes'] >= 1, p
    assert 0 < p['peak_scratch_pages'] <= p['spilled_pages'], p
    # Positional file calls: at least one per node written, and well
    # under one per page moved.
    assert p['nodes'] < p['io_calls'] < p['nodes'] + p['spilled_pages'], p
    assert abs(p['io_calls_per_point'] - p['io_calls'] / p['n']) < 1e-4, p
    assert p['build_s'] > 0 and p['height'] >= 2, p
    for key in ('cold_mean_s', 'cold_p95_s', 'warm_mean_s', 'warm_p95_s',
                'cold_reads_per_query'):
        assert p[key] > 0, (key, p)
    assert 0 < p['warm_cache_hit_ratio'] <= 1, p
    assert 0.5 < p['avg_fill'] <= 1.0, p
# The largest scale again under the builder's default options.
d = b['default_options']
assert d['n'] == ns[-1] and d['build_s'] > 0 and d['run_capacity'] > 0, d
print('BENCH_scale OK:', [(p['n'], round(p['build_s'], 2)) for p in pts])
PY

# The sweep against the committed baseline, with the committed
# full-scale build's scaling band; then this build's quick scale points,
# whose file-call count is exact (FileStore::io_calls), so that gate has
# no band: scratch runs must go by extents, not page by page.
target/release/check_regression --current "$R/BENCH_summary.json" \
  --baseline results/BASELINE.json --scale results/BENCH_scale.json
target/release/check_regression --current "$R/BENCH_summary.json" \
  --baseline results/BASELINE.json --scale "$R/BENCH_scale.json"
target/release/sqda report --results-dir "$R" --out "$R/report.html"

# Degraded mode through the CLI: fail-stop two disks, reads go to the shadows.
target/release/sqda generate --kind gaussian --n 2000 --out "$OUT/faultpts.csv"
target/release/sqda build --input "$OUT/faultpts.csv" --store "$OUT/faultstore" --disks 10 --bulk
target/release/sqda simulate --store "$OUT/faultstore" --queries 20 \
  --mirrored --fail-disks 2 --fail-at 0

#!/bin/bash
# CI `bench-smoke`: the hot-path bin's JSON checked against its schema
# and exact counters, and the smallest bench_scale sizes held to half a
# file call per page moved. Outputs: target/ci/bench-smoke.
set -euo pipefail
cd "$(dirname "$0")/../.."
OUT=target/ci/bench-smoke
rm -rf "$OUT"
mkdir -p "$OUT"

cargo run --release -p sqda-bench --bin bench_hotpath -- --out "$OUT/hotpath"
python3 - "$OUT/hotpath/BENCH_hotpath.json" <<'PY'
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

# The count is exact (FileStore::io_calls), so the gate has no band:
# scratch runs must go by extents, not page by page.
cargo run --release -p sqda-bench --bin bench_scale -- --quick --out "$OUT/scale"
cargo run --release -p sqda-bench --bin check_regression -- \
  --current results/BASELINE.json --baseline results/BASELINE.json \
  --scale "$OUT/scale/BENCH_scale.json"

#!/bin/bash
# CI `test`: the tier-1 line, locked and offline under an empty
# CARGO_HOME (so it passes only while the workspace takes no registry
# crate), then a build of the repo benchmark's package, then the tree
# property tests at 500 cases each, code lines per
# crate, one quick experiment sweep (5 replications per data point)
# with its summary checked — the fault
# sweep, the explain records, the hot-path counters and the external
# build's scale points, all read from the schema-v2 fragments under
# `benches` — gated against the committed baseline with noise-aware
# bands and the build's scaling band and file-call budget, with the
# paper's claims checked over it (`experiment report --quick`) and the
# committed `results/REPORT.md` regenerated from the committed CSVs, then
# a degraded-mode CLI run.
# Outputs: target/ci/test (the sweep and its REPORT.md in target/ci/test/results).
set -euo pipefail
cd "$(dirname "$0")/../.."
OUT=target/ci/test
rm -rf "$OUT"
mkdir -p "$OUT/cargo-home"

CARGO_HOME="$PWD/$OUT/cargo-home" cargo build --release --locked --offline &&
  CARGO_HOME="$PWD/$OUT/cargo-home" cargo test -q --locked --offline

# The repo benchmark (benchmark/) is a package of its own over the library
# crates' public API: build it, so a change to a signature it calls
# fails here. (Its Cargo.lock is written fresh and git-ignored.)
CARGO_HOME="$PWD/$OUT/cargo-home" cargo build --release --offline \
  --manifest-path benchmark/Cargo.toml --target-dir "$OUT/benchmark-target"

# The tree properties again at 500 cases each: both trees run on one
# paged-tree shell, so its insertion, codec and validator are drawn
# harder than one tier-1 pass draws them, and the R* ChooseSubtree's
# branch and bound is held to the full rule.
SQDA_PROP_CASES=500 CARGO_HOME="$PWD/$OUT/cargo-home" cargo test -q --locked --offline \
  -p sqda-rstar --test prop_tree --test prop_codec --test prop_sstree --test prop_choose_subtree

tools/loc.sh

R="$OUT/results"
target/release/experiment all --quick --out "$R" \
  --trace "$R/demo_trace.json" --metrics "$R/demo_metrics.json"
python3 - "$R" <<'PY'
import glob, json, os, sys
r = sys.argv[1]

# The summary is the one results document: no side files, no legacy
# headline array beside the headline fragment.
docs = sorted(os.path.basename(p) for p in glob.glob(f'{r}/BENCH_*.json'))
assert docs == ['BENCH_summary.json'], docs
s = json.load(open(f'{r}/BENCH_summary.json'))
assert 'headline' not in s, sorted(s)
assert all(e['ok'] for e in s['experiments']), s['experiments']
# Exactly one fragment per experiment plus the headline run: a missing
# fragment, or a stale one that made it into the merge, fails here.
names = {e['name'] for e in s['experiments']} | {'headline'}
assert set(s['benches']) == names, sorted(set(s['benches']) ^ names)

def metrics(bench, stat='mean'):
    # {name: {labels (sorted tuple): stat}} of one bench's fragment.
    out = {}
    for m in s['benches'][bench]['metrics']:
        out.setdefault(m['name'], {})[tuple(sorted(m['labels'].items()))] = m[stat]
    return out

def params(bench):
    return json.load(open(f'{r}/{bench}.manifest.json'))['params']

hl = metrics('headline')['mean_response_s']
assert {dict(l)['algorithm'] for l in hl} == {'BBSS', 'FPSS', 'CRSS', 'WOPTSS'}, hl
assert all(v > 0 for v in hl.values()), hl

# Fault sweep, replication 0's exact counters per (failed, algorithm).
f = metrics('fault_sweep')
points = {l: (dict(l), v) for l, v in f['completed'].items()}
assert {p['algorithm'] for p, _ in points.values()} == {'BBSS', 'FPSS', 'CRSS', 'WOPTSS'}
assert set(f['aborted_queries']) == set(f['degraded_reads']) == set(points)
healthy = [l for l, (p, _) in points.items() if p['failed'] == '0']
assert healthy and all(f['degraded_reads'][l] == 0 and f['aborted_queries'][l] == 0
                       for l in healthy), healthy
worst = max(int(p['failed']) for p, _ in points.values())
degraded = [l for l, (p, _) in points.items() if int(p['failed']) == worst]
# Mirrored array: reads degrade to the shadow partner, nothing aborts.
assert all(f['aborted_queries'][l] == 0 and f['completed'][l] > 0 for l in degraded), degraded
assert sum(f['degraded_reads'][l] for l in degraded) > 0, degraded
print('fault_sweep OK:', len(points), 'points, worst case', worst, 'failed disks')

e = metrics('bench_explain')
ks = sorted(int(dict(l)['k']) for l in e['mean_observed_accesses'])
assert len(ks) >= 2 and len(set(ks)) == len(ks), ks
for k in ks:
    l = (('k', str(k)),)
    assert e['predicted_accesses'][l] > 0 and e['mean_observed_accesses'][l] > 0, k
    assert e['mean_abs_residual_accesses'][l] >= 0, k
    assert e['mean_observed_response_ms'][l] > 0, k
samples = e['calibration_samples'][()]
assert samples > 0 and e['calibration_mean_service_ms'][()] > 0, e
for term in ('calibration_mean_seek_ms', 'calibration_mean_rotation_ms', 'calibration_fixed_ms'):
    assert e[term][()] >= 0, (term, e[term])
print('bench_explain OK:', len(ks), 'k points,', samples, 'calibration samples')

h = {name: v.get((), v) for name, v in metrics('bench_hotpath').items()}
cfg = params('bench_hotpath')
for key in ('dim', 'page_size', 'objects', 'nodes', 'cache_pages'):
    assert int(cfg[key]) > 0, (key, cfg)
assert s['benches']['bench_hotpath']['reps'] > 0
for key in ('decode_leaf_ns', 'decode_internal_ns',
            'warm_traversal_ns_per_node', 'knn_warm_ns_per_query',
            'batch_knn_ns_per_query', 'crss_hot_query_ns',
            'crss_hot_nodes_per_query', 'crss_hot_rounds_per_query',
            'frontier_hot_query_ns', 'frontier_hot_nodes_per_query',
            'frontier_hot_rounds_per_query'):
    assert h[key] > 0, (key, h[key])
# Every read of the hot query is free, so CRSS activates one branch per
# round: each round is exactly one page.
assert h['crss_hot_nodes_per_query'] == h['crss_hot_rounds_per_query'], h
# So does the best-first frontier, and in distance order it visits
# WOPTSS's nodes: never more than CRSS's.
assert h['frontier_hot_nodes_per_query'] == h['frontier_hot_rounds_per_query'], h
assert h['frontier_hot_nodes_per_query'] <= h['crss_hot_nodes_per_query'], h
# A hot CRSS query allocates its answers and its algorithm and nothing
# else (exact counts; core/tests/hot_allocs.rs pins the same).
assert 0 < h['allocs_per_query'] <= 12, h['allocs_per_query']
assert 0 < h['bytes_per_query'] <= 4096, h['bytes_per_query']
# Kernel section: ns/entry for the three kernels at every specialised
# dimensionality measured and at dim 10 (runtime `dim`), all three batch
# sizes; batching a full node must not be slower per entry than
# one-at-a-time calls. Compared on the fastest rep of each cell: a mean
# takes in every rep a neighbour's load slowed, and once failed so on
# unchanged kernels.
kern_min = metrics('bench_hotpath', 'min')['kernel_ns_per_entry']
kern = {tuple(v for _, v in l): m for l, m in kern_min.items()}
for kernel in ('dist_sq', 'min_dist', 'rect_metrics'):
    for dim in ('2', '3', '5', '8', '10'):
        cell = {b: kern[(b, dim, kernel)] for b in ('1', '8', '64')}
        assert all(v > 0 for v in cell.values()), (kernel, dim, cell)
        assert cell['64'] <= cell['1'], (kernel, dim, cell)
# The telemetry plane's per-event costs (DESIGN.md's overhead contract).
tel = {dict(l)['op']: v for l, v in h['telemetry_ns'].items()}
for op in ('observe_query', 'observe_query_contended', 'flight_record',
           'prometheus_render'):
    assert tel[op] > 0, (op, tel)
# The shared-round counters are exact over the deterministic tree:
# 8 clustered queries must share fetches (total interest over unique
# fetches above 1).
assert h['batch_knn_sharing_factor'] > 1, h
assert h['batch_knn_rounds'] >= 2, h
# Insertion, the paper's construction: the timed build and the exact
# store reads, writes and allocations per object that check_regression
# compares against the baseline.
for key in ('insert_ns_per_object', 'insert_reads_per_object',
            'insert_writes_per_object', 'insert_allocs_per_object'):
    assert h[key] > 0, (key, h[key])
print('bench_hotpath OK:', {k: v for k, v in h.items() if not isinstance(v, dict)})

b = metrics('bench_scale')
cfg = params('bench_scale')
for key in ('disks', 'k', 'page_size', 'run_capacity', 'cache_bytes', 'queries'):
    assert int(cfg[key]) > 0, (key, cfg)
ns = sorted(int(dict(l)['n']) for l in b['build_wall_s'] if len(l) == 1)
assert len(ns) >= 2 and len(set(ns)) == len(ns), ns
for n in ns:
    p = {name: v[(('n', str(n)),)] for name, v in b.items() if (('n', str(n)),) in v}
    # Every scale point must actually have gone out of core.
    assert p['runs'] > 1 and p['spilled_pages'] > 0, p
    assert p['merge_passes'] >= 1, p
    assert 0 < p['peak_scratch_pages'] <= p['spilled_pages'], p
    # Positional file calls: at least one per node written, and well
    # under one per page moved.
    assert p['nodes'] < p['io_calls'] < p['nodes'] + p['spilled_pages'], p
    assert p['build_wall_s'] > 0 and p['height'] >= 2, p
    for key in ('cold_knn_mean_s', 'warm_knn_mean_s', 'cold_reads_per_query'):
        assert p[key] > 0, (key, p)
    assert 0 < p['warm_cache_hit_ratio'] <= 1, p
    assert 0.5 < p['avg_fill'] <= 1.0, p
# The largest scale again under the builder's default options.
rebuild = [dict(l) for l in b['build_wall_s'] if len(l) == 2]
assert len(rebuild) == 1, rebuild
d = rebuild[0]
assert int(d['n']) == ns[-1] and int(d['run_capacity']) > 0, d
assert b['build_wall_s'][tuple(sorted(d.items()))] > 0, d
print('bench_scale OK:', [(n, round(b['build_wall_s'][(('n', str(n)),)], 2)) for n in ns])
PY

# The sweep against the committed baseline, with the committed
# full-scale build's scaling band; then this build's quick scale points,
# whose file-call count is exact (FileStore::io_calls), so that gate has
# no band: scratch runs must go by extents, not page by page.
target/release/check_regression --current "$R/BENCH_summary.json" \
  --baseline results/BASELINE.json --scale results/bench/bench_scale.json
target/release/check_regression --current "$R/BENCH_summary.json" \
  --baseline results/BASELINE.json --scale "$R/BENCH_summary.json"

# The paper's claims over the quick sweep: a claim required at quick
# scale that fails exits non-zero. Then the committed report must be what
# the committed CSVs render: a claim or renderer change that moves it
# fails until `experiment report` is rerun and its output committed.
target/release/experiment report --quick --out "$R"
target/release/experiment report --out results
git diff --exit-code results/REPORT.md

# Degraded mode through the CLI: fail-stop two disks, reads go to the shadows.
target/release/sqda generate --kind gaussian --n 2000 --out "$OUT/faultpts.csv"
target/release/sqda build --input "$OUT/faultpts.csv" --store "$OUT/faultstore" --disks 10 --bulk
target/release/sqda simulate --store "$OUT/faultstore" --queries 20 \
  --mirrored --fail-disks 2 --fail-at 0

#!/bin/bash
# CI `test`: the tier-1 line, locked and offline under an empty
# CARGO_HOME (so it passes only while the workspace takes no registry
# crate), then code lines per crate, a quick experiment sweep with its
# JSON checked, and a degraded-mode CLI run. Outputs: target/ci/test.
set -euo pipefail
cd "$(dirname "$0")/../.."
OUT=target/ci/test
rm -rf "$OUT"
mkdir -p "$OUT/cargo-home"

CARGO_HOME="$PWD/$OUT/cargo-home" cargo build --release --locked --offline &&
  CARGO_HOME="$PWD/$OUT/cargo-home" cargo test -q --locked --offline

tools/loc.sh

R="$OUT/results"
target/release/run_all_experiments --quick --out "$R" \
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

# Degraded mode through the CLI: fail-stop two disks, reads go to the shadows.
target/release/sqda generate --kind gaussian --n 2000 --out "$OUT/faultpts.csv"
target/release/sqda build --input "$OUT/faultpts.csv" --store "$OUT/faultstore" --disks 10 --bulk
target/release/sqda simulate --store "$OUT/faultstore" --queries 20 \
  --mirrored --fail-disks 2 --fail-at 0

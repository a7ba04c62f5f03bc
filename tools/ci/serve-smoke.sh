#!/bin/bash
# CI `serve-smoke`: backend parity tests, then a persisted store served
# over TCP — every verb, the METRICS exposition linted, the flight trace
# and slow log checked, round trips timed, the read split between the
# caller and the disk workers, and the calibration written at shutdown
# read back by an offline EXPLAIN. Outputs: target/ci/serve-smoke.
set -euo pipefail
cd "$(dirname "$0")/../.."
OUT="$PWD/target/ci/serve-smoke"
rm -rf "$OUT"
mkdir -p "$OUT"

cargo test -p sqda-core --test backend_parity -q
cargo build --release -p sqda-cli
SQDA="$PWD/target/release/sqda"
STORE="$OUT/servestore"
"$SQDA" generate --kind gaussian --n 2000 --out "$OUT/servepts.csv"
"$SQDA" build --input "$OUT/servepts.csv" --store "$STORE" --disks 8 --bulk

# --cache 2: keep the node cache tiny so queries actually reach the disk
# backend — the shutdown calibration fit needs live read samples.
"$SQDA" serve --store "$STORE" --port 0 --cache 2 \
  --flight-cap 65536 --slow-query-ms 0 --slow-query-log "$OUT/slow.jsonl" \
  >"$OUT/serve.log" &
SERVER=$!
trap 'kill "$SERVER" 2>/dev/null || true' EXIT
for _ in $(seq 50); do grep -q 'listening on' "$OUT/serve.log" && break; sleep 0.2; done
ADDR=$(sed -n 's/^listening on //p' "$OUT/serve.log" | head -1)
python3 - "$ADDR" "$OUT" <<'PY'
import json, socket, sys
host, port = sys.argv[1].rsplit(':', 1)
out = sys.argv[2]
s = socket.create_connection((host, int(port)), timeout=10)
f = s.makefile('rw')
def req(line):
    f.write(line + '\n'); f.flush()
    return f.readline().strip()
assert req('PING') == 'PONG'
replies = {}
for algo in ('bbss', 'fpss', 'crss', 'woptss', 'frontier'):
    r = req(f'QUERY 0.5,0.5 5 {algo}')
    assert r.startswith('OK 5 '), (algo, r)
    replies[algo] = r
assert req('QUERY nonsense').startswith('ERR')

# EXPLAIN: one-line JSON introspection record with the analytical
# prediction and residuals next to the observed per-level execution
# profile. It runs a real query, so it feeds every per-query counter
# below (7 = 5 QUERYs + this + the bare EXPLAIN after it).
ex = req('EXPLAIN 0.5,0.5 5 crss')
assert ex.startswith('{'), ex
rec = json.loads(ex)
for key in ('algo', 'k', 'observed_accesses', 'observed_batches',
            'observed_response_ms', 'predicted_accesses',
            'predicted_response_ms', 'residual_accesses',
            'level_accesses', 'batch_sizes', 'threshold_trajectory',
            'reads_per_disk', 'calibrated'):
    assert key in rec, (key, rec)
assert rec['algo'] == 'CRSS' and rec['k'] == 5, rec
assert rec['observed_accesses'] > 0, rec
assert rec['predicted_accesses'] and rec['predicted_accesses'] > 0, rec
assert abs(rec['residual_accesses'] -
           (rec['observed_accesses'] - rec['predicted_accesses'])) < 1e-9, rec
assert rec['calibrated'] is False, rec  # first run: no calibration.json yet
# A bare EXPLAIN (or QUERY) runs the best-first frontier.
bare = json.loads(req('EXPLAIN 0.5,0.5 5'))
assert bare['algo'] == 'FRONTIER' and bare['k'] == 5, bare
assert bare['observed_accesses'] > 0, bare
assert req('EXPLAIN nonsense').startswith('ERR')
assert req('EXPLAIN').startswith('ERR')

stats = req('STATS')
assert stats.startswith('STATS queries=7 '), stats
for field in ('cache_hit_ratio=', 'degraded_reads=0',
              'window_qps=', 'window_p50_ms=', 'window_p99_ms=',
              'reads_per_disk=', 'resident_bytes=', 'byte_budget=',
              'inline_reads=', 'polled_requests='):
    assert field in stats, (field, stats)
# Present, not counted: this client turns a reply around slower than the
# server's poll window, so whether any request was polled is timing.

# Shared-traversal batch verb: two queries, one descent. The first
# query's answers must match the earlier solo fpss reply (BATCH feeds
# the served counter but not per-query telemetry, so the later
# queries_completed/flight/slow-log counts of 7 still hold).
solo = replies['fpss']
batch = req('BATCH 0.5,0.5;0.1,0.9 5')
assert batch.startswith('OK 2 fetches='), batch
assert ' rounds=' in batch and ' wall_us=' in batch, batch
assert ' q0=' + ','.join(solo.split()[2:]) in batch, (solo, batch)
assert req('BATCH 0.5 5').startswith('ERR')
assert req('BATCH ' + ';'.join(['0.5,0.5'] * 1025) + ' 5') == 'ERR batch too large'

# Scrape METRICS (read until the "# EOF" terminator) and lint the
# exposition: HELP/TYPE per sampled family, ascending le bounds with
# monotone cumulative buckets, _sum/_count per histogram series,
# _count equal to the +Inf bucket.
f.write('METRICS\n'); f.flush()
lines = []
while True:
    line = f.readline().rstrip('\n')
    lines.append(line)
    if line == '# EOF':
        break
helps, types, hists = set(), {}, {}
for l in lines:
    if l.startswith('# HELP '):
        helps.add(l.split()[2])
    elif l.startswith('# TYPE '):
        types[l.split()[2]] = l.split()[3]
def family(name):
    for suf in ('_bucket', '_sum', '_count'):
        if name.endswith(suf) and name[: -len(suf)] in types:
            return name[: -len(suf)]
    return name
for l in lines:
    if l.startswith('#') or not l:
        continue
    head, value = l.rsplit(' ', 1)
    name = head.split('{', 1)[0]
    fam = family(name)
    assert fam in helps and fam in types, (l, fam)
    if types.get(fam) == 'histogram':
        body = head[len(name):].strip('{}')
        labels = dict(p.split('=', 1) for p in body.split(',') if p)
        le = labels.pop('le', None)
        key = (fam, tuple(sorted(labels.items())))
        entry = hists.setdefault(key, {'b': [], 's': False, 'c': None})
        if name.endswith('_bucket'):
            le = le.strip('"')
            bound = float('inf') if le == '+Inf' else float(le)
            entry['b'].append((bound, float(value)))
        elif name.endswith('_sum'):
            entry['s'] = True
        elif name.endswith('_count'):
            entry['c'] = float(value)
assert hists, 'no histogram series scraped'
for key, e in hists.items():
    bounds = [b for b, _ in e['b']]
    cums = [c for _, c in e['b']]
    assert bounds == sorted(bounds), (key, bounds)
    assert cums == sorted(cums), (key, cums)
    assert bounds[-1] == float('inf'), (key, bounds)
    assert e['s'] and e['c'] == cums[-1], (key, e)
text = '\n'.join(lines)
assert 'sqda_queries_completed_total 7' in text, text[:2000]
assert 'sqda_disk_reads_total{disk="0"}' in text
assert 'sqda_model_residual_accesses ' in text, text[:2000]
assert 'sqda_model_residual_latency ' in text, text[:2000]
assert 'sqda_cache_resident_bytes ' in text, text[:2000]
assert 'sqda_backend_inline_reads_total ' in text, text[:2000]
assert 'sqda_polled_requests_total ' in text, text[:2000]
open(f'{out}/metrics-scrape.txt', 'w').write(text + '\n')
print('METRICS OK:', len(lines), 'lines,', len(hists), 'histogram series')

# Flight-recorder export over the wire: a bare file name, written under
# <store>/trace/ (a path is refused).
assert req(f'DUMP-TRACE {out}/flight-trace.json').startswith('ERR'), 'path accepted'
dump = req('DUMP-TRACE flight-trace.json')
assert dump.startswith('OK trace events='), dump
assert not dump.startswith('OK trace events=0 '), dump
trace_file = dump.split(' path=', 1)[1]
assert trace_file.endswith('/servestore/trace/flight-trace.json'), dump
assert req('SHUTDOWN') == 'BYE'
t = json.load(open(trace_file))
assert t['displayTimeUnit'] == 'ms'
begins = sum(1 for e in t['traceEvents'] if e['ph'] == 'b')
ends = sum(1 for e in t['traceEvents'] if e['ph'] == 'e')
assert begins == ends == 7, (begins, ends)
slow = [json.loads(l) for l in open(f'{out}/slow.jsonl')]
assert len(slow) == 7 and all('response_ms' in e for e in slow), slow
# The EXPLAIN'd queries' slow-log entries carry the full record.
enriched = [e for e in slow if 'explain' in e]
assert len(enriched) == 2, slow
emb = enriched[0]['explain']
assert emb['observed_accesses'] > 0 and 'predicted_accesses' in emb, emb
print('serve smoke OK:', stats)
PY
wait "$SERVER"

# Round trips do not stall; SHUTDOWN does not wait for an idle client.
python3 - "$SQDA" "$STORE" <<'PY'
import socket, statistics, subprocess, sys, time
sqda, store = sys.argv[1], sys.argv[2]
# --uncalibrated: leave the calibration.json of the run above alone.
server = subprocess.Popen([sqda, 'serve', '--store', store, '--port', '0', '--uncalibrated'],
                          stdout=subprocess.PIPE, text=True)
ready = server.stdout.readline()
assert ready.startswith('listening on '), ready
host, port = ready.split()[-1].rsplit(':', 1)
# A plain socket: Nagle on, one send per request, like any scripted
# client. A reply split over two segments would wait ~40 ms for this
# side's delayed ACK on every round trip.
s = socket.create_connection((host, int(port)), timeout=10)
f = s.makefile('rwb')
def req(line):
    f.write(line.encode() + b'\n'); f.flush()
    return f.readline().decode().strip()
for verb, want in (('PING', 'PONG'), ('QUERY 0.5,0.5 5', 'OK 5 ')):
    times = []
    for _ in range(200):
        t = time.perf_counter()
        reply = req(verb)
        times.append(time.perf_counter() - t)
        assert reply.startswith(want), (verb, reply)
    median_ms = statistics.median(times) * 1e3
    print(f'{verb}: median {median_ms:.3f} ms, max {max(times) * 1e3:.3f} ms over 200 round trips')
    assert median_ms < 5.0, (verb, median_ms)
# A second client that connects and says nothing must not keep the
# server alive after SHUTDOWN.
idle = socket.create_connection((host, int(port)), timeout=10)
assert req('SHUTDOWN') == 'BYE'
assert server.wait(timeout=5) == 0, 'sqda serve failed'
assert idle.recv(1) == b'', 'idle client was not closed'
print('idle-client SHUTDOWN OK')
PY

# Reads are split between the caller and the disk workers.
python3 - "$SQDA" "$STORE" <<'PY'
import socket, subprocess, sys
sqda, store = sys.argv[1], sys.argv[2]
# An 8 KiB node cache holds two of the store's 13 nodes: most lookups
# miss it and go to the backend, which serves resident pages on the
# connection thread.
server = subprocess.Popen([sqda, 'serve', '--store', store, '--port', '0',
                           '--cache-bytes', '8192', '--uncalibrated'],
                          stdout=subprocess.PIPE, text=True)
ready = server.stdout.readline()
assert ready.startswith('listening on '), ready
host, port = ready.split()[-1].rsplit(':', 1)
f = socket.create_connection((host, int(port)), timeout=10).makefile('rwb')
def req(line):
    f.write(line.encode() + b'\n'); f.flush()
    return f.readline().decode().strip()
for i in range(200):
    x, y = (i * 37 % 100) / 100, (i * 61 % 100) / 100
    assert req(f'QUERY {x},{y} 5').startswith('OK 5 '), i
stats = dict(w.split('=', 1) for w in req('STATS').split()[1:])
reads, inline = int(stats['reads']), int(stats['inline_reads'])
assert req('SHUTDOWN') == 'BYE'
assert server.wait(timeout=5) == 0, 'sqda serve failed'
assert reads > 0 and inline <= reads, stats
print(f'inline_reads / reads = {inline} / {reads} = {inline / reads:.3f}')
# A store written a minute ago is in the page cache and RWF_NOWAIT is
# supported on ext4, so none served inline means the attempt is broken.
assert inline > 0, stats
PY

# Calibration written at shutdown, loaded by the offline explain.
python3 - "$STORE" <<'PY'
import json, sys
c = json.load(open(f'{sys.argv[1]}/calibration.json'))
assert c['schema'] == 1 and c['source'] == 'live', c
assert c['samples'] > 0, c
for key in ('mean_seek_s', 'mean_rotation_s', 'fixed_s'):
    assert c[key] > 0, (key, c)
assert abs(c['mean_service_s'] -
           (c['mean_seek_s'] + c['mean_rotation_s'] + c['fixed_s'])) < 1e-12, c
print('calibration OK:', c)
PY
"$SQDA" explain --store "$STORE" --point 0.5,0.5 --k 5 | tee "$OUT/explain.json"
python3 - "$OUT/explain.json" <<'PY'
import json, sys
rec = json.loads(open(sys.argv[1]).read())
assert rec['calibrated'] is True, rec
assert rec['observed_accesses'] > 0 and rec['predicted_accesses'] > 0, rec
assert 'residual_accesses' in rec and 'residual_response_ms' in rec, rec
print('offline explain OK:', {k: rec[k] for k in
      ('observed_accesses', 'predicted_accesses', 'calibrated')})
PY

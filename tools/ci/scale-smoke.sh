#!/bin/bash
# CI `scale-smoke`: external-build equivalence tests, a streamed CSV
# build under a 1 GiB address-space limit, byte for byte the same with
# one sort worker as with two (`experiment bench_scale`'s
# fragment, `benches.bench_scale` of the quick sweep's summary, is
# checked by tools/ci/test.sh). Outputs: target/ci/scale-smoke.
set -euo pipefail
cd "$(dirname "$0")/../.."
OUT=target/ci/scale-smoke
rm -rf "$OUT"
mkdir -p "$OUT"

cargo test -p sqda-rstar --test external_build --test prop_external -q

# 1 GiB of address space for a 200k-point build with 64k-point sort
# runs: a regression to "just buffer the whole dataset" (or a
# scratch-page leak) trips the limit and fails loudly.
cargo build --release -p sqda-cli
SQDA=target/release/sqda
"$SQDA" generate --kind uniform --n 200000 --seed 11 --out "$OUT/scalepts.csv"
(
  ulimit -v 1048576
  "$SQDA" build --input "$OUT/scalepts.csv" --store "$OUT/scalestore" --disks 8 \
    --external --run-capacity 65536 --jobs 2 | tee "$OUT/scalebuild.log"
)
grep -q 'external build:' "$OUT/scalebuild.log"
test ! -e "$OUT/scalestore/scratch"

# Parallel run sorting changes how the runs are sorted, never the tree:
# the same CSV built with one sort worker leaves every store file
# byte-identical.
"$SQDA" build --input "$OUT/scalepts.csv" --store "$OUT/scalestore-jobs1" --disks 8 \
  --external --run-capacity 65536 --jobs 1 > "$OUT/scalebuild-jobs1.log"
diff <(ls "$OUT/scalestore") <(ls "$OUT/scalestore-jobs1")
for f in "$OUT"/scalestore/*; do
  cmp "$f" "$OUT/scalestore-jobs1/$(basename "$f")"
done
"$SQDA" query --store "$OUT/scalestore" --point 0.5,0.5 --k 10 | tee "$OUT/scalequery.log"
grep -q 'found 10 neighbours' "$OUT/scalequery.log"

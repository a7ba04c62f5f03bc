#!/bin/bash
# The repo benchmark: builds the `sqda` CLI and the `sqda_benchmark`
# driver from this checkout, then hands every argument to the driver.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the result object BENCHMARK.json
#       describes (end-to-end metrics with --trace 0, per-layer with 1)
#   benchmark/run.sh [--seed N] [--workload W] [--repeat R] [--seconds S]
#       the whole set: every workload, untraced then traced, every metric
#       printed as `workload name value unit`, benchmark/out/result.json
#       written; --repeat 2 also checks the runs agree within the bounds
#
# Build products go under $CARGO_TARGET_DIR (default benchmark/out/target)
# and target/offline/opt; scratch data lives under benchmark/out/tmp.* and
# is removed on exit. See benchmark/README.md.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(dirname "$HERE")
cd "$ROOT"

if [ ! -f Cargo.toml ] || [ ! -f crates/cli/src/main.rs ]; then
  echo "benchmark/run.sh: $ROOT is not a checkout of the program (no crates/cli)" >&2
  exit 2
fi

TARGET=${CARGO_TARGET_DIR:-benchmark/out/target}
mkdir -p "$TARGET" benchmark/out
TARGET=$(cd "$TARGET" && pwd)
BIN="$TARGET/sqda-benchmark-bin"
STAMP="$BIN/built"

stale() {
  [ -x "$BIN/sqda" ] && [ -x "$BIN/sqda_benchmark" ] && [ -f "$STAMP" ] || return 0
  [ -n "$(find crates benchmark/src benchmark/Cargo.toml benchmark/run.sh tools/offline Cargo.toml \
    -type f -newer "$STAMP" -print -quit)" ]
}

build_cargo() {
  # Resolves only when every registry crate is already cached; a networked
  # checkout runs `cargo fetch` (root and benchmark/) once to get here.
  cargo metadata --offline --format-version 1 --manifest-path benchmark/Cargo.toml \
    >/dev/null 2>&1 || return 1
  CARGO_TARGET_DIR="$TARGET" cargo build --offline --release -p sqda-cli >&2
  CARGO_TARGET_DIR="$TARGET" cargo build --offline --release \
    --manifest-path benchmark/Cargo.toml >&2
  cp "$TARGET/release/sqda" "$TARGET/release/sqda_benchmark" "$BIN/"
  echo cargo >"$BIN/build_mode"
}

build_offline() {
  # No registry: the committed stub-crate build, then two hand-linked bins.
  bash tools/offline/build_opt.sh >&2
  local out=target/offline/opt ext="" c
  for c in geom storage simkernel obs rstar core datasets analysis; do
    ext="$ext --extern sqda_$c=$out/libsqda_$c.rlib"
  done
  rustc --edition 2021 -C opt-level=3 --crate-type bin --crate-name sqda \
    -L dependency=$out $ext --extern rand=$out/librand.rlib \
    crates/cli/src/main.rs -o "$BIN/sqda" >&2
  rustc --edition 2021 -C opt-level=3 --crate-type bin --crate-name sqda_benchmark \
    -L dependency=$out $ext benchmark/src/main.rs -o "$BIN/sqda_benchmark" >&2
  echo offline >"$BIN/build_mode"
}

if stale; then
  mkdir -p "$BIN"
  rm -f "$STAMP"
  build_cargo || build_offline
  touch "$STAMP"
fi

exec "$BIN/sqda_benchmark" --sqda "$BIN/sqda" --out "$ROOT/benchmark/out" \
  --build-mode "$(cat "$BIN/build_mode")" "$@"

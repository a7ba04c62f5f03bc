#!/bin/bash
# Offline typecheck of the workspace with stub externals (no crates.io).
# Builds real rlibs for every workspace crate against the stub crates in
# tools/offline/stubs, then metadata-checks every binary and example.
# Warnings are kept visible. See tools/offline/README.md.
set -e
cd "$(dirname "$0")/../.."
S=tools/offline
OUT=target/offline/out
mkdir -p "$OUT"

echo "== stubs"
rustc --edition 2021 --crate-type lib --crate-name bytes \
  $S/stubs/bytes.rs --out-dir $OUT
rustc --edition 2021 --crate-type lib --crate-name parking_lot \
  $S/stubs/parking_lot.rs --out-dir $OUT
rustc --edition 2021 --crate-type lib --crate-name rand \
  $S/stubs/rand.rs --out-dir $OUT
rustc --edition 2021 --crate-type lib --crate-name criterion \
  $S/stubs/criterion.rs --out-dir $OUT

EXT_BYTES="--extern bytes=$OUT/libbytes.rlib"
EXT_PL="--extern parking_lot=$OUT/libparking_lot.rlib"
EXT_RAND="--extern rand=$OUT/librand.rlib"

lib() { # name path externs...
  local name=$1 path=$2; shift 2
  echo "== $name"
  rustc --edition 2021 --crate-type lib --crate-name $name -L dependency=$OUT "$@" \
    "$path" --out-dir $OUT
}

lib sqda_geom crates/geom/src/lib.rs
lib sqda_storage crates/storage/src/lib.rs $EXT_BYTES $EXT_RAND $EXT_PL
lib sqda_simkernel crates/simkernel/src/lib.rs $EXT_RAND
EXT_GEOM="--extern sqda_geom=$OUT/libsqda_geom.rlib"
EXT_STORAGE="--extern sqda_storage=$OUT/libsqda_storage.rlib"
EXT_SIM="--extern sqda_simkernel=$OUT/libsqda_simkernel.rlib"
lib sqda_obs crates/obs/src/lib.rs $EXT_STORAGE
EXT_OBS="--extern sqda_obs=$OUT/libsqda_obs.rlib"
lib sqda_rstar crates/rstar/src/lib.rs $EXT_GEOM $EXT_STORAGE $EXT_BYTES $EXT_PL $EXT_RAND
EXT_RSTAR="--extern sqda_rstar=$OUT/libsqda_rstar.rlib"
lib sqda_core crates/core/src/lib.rs $EXT_GEOM $EXT_STORAGE $EXT_RSTAR $EXT_SIM $EXT_OBS $EXT_RAND
EXT_CORE="--extern sqda_core=$OUT/libsqda_core.rlib"
lib sqda_sstree crates/sstree/src/lib.rs $EXT_GEOM $EXT_STORAGE $EXT_CORE $EXT_BYTES
EXT_SSTREE="--extern sqda_sstree=$OUT/libsqda_sstree.rlib"
lib sqda_datasets crates/datasets/src/lib.rs $EXT_GEOM $EXT_RAND
EXT_DATASETS="--extern sqda_datasets=$OUT/libsqda_datasets.rlib"
lib sqda_analysis crates/analysis/src/lib.rs $EXT_GEOM $EXT_RSTAR $EXT_STORAGE $EXT_SIM $EXT_OBS
EXT_ANALYSIS="--extern sqda_analysis=$OUT/libsqda_analysis.rlib"
lib sqda_bench crates/bench/src/lib.rs $EXT_GEOM $EXT_STORAGE $EXT_SIM $EXT_RSTAR \
  $EXT_CORE $EXT_DATASETS $EXT_ANALYSIS $EXT_SSTREE $EXT_OBS $EXT_RAND
EXT_BENCH="--extern sqda_bench=$OUT/libsqda_bench.rlib"
lib sqda src/lib.rs $EXT_GEOM $EXT_STORAGE $EXT_SIM $EXT_RSTAR \
  $EXT_CORE $EXT_DATASETS $EXT_ANALYSIS $EXT_SSTREE $EXT_OBS

ALL_EXT="$EXT_GEOM $EXT_STORAGE $EXT_SIM $EXT_RSTAR $EXT_CORE $EXT_DATASETS
         $EXT_ANALYSIS $EXT_SSTREE $EXT_BENCH $EXT_OBS $EXT_RAND
         --extern sqda=$OUT/libsqda.rlib"

echo "== cli"
rustc --edition 2021 --crate-type bin --crate-name sqda_cli --emit=metadata \
  -L dependency=$OUT $EXT_GEOM $EXT_STORAGE $EXT_SIM $EXT_RSTAR \
  $EXT_CORE $EXT_DATASETS $EXT_ANALYSIS $EXT_OBS $EXT_RAND \
  crates/cli/src/main.rs --out-dir $OUT/bins

echo "== bench bins"
for b in crates/bench/src/bin/*.rs; do
  name=$(basename "$b" .rs)
  echo "  -- $name"
  rustc --edition 2021 --crate-type bin --crate-name "$name" --emit=metadata \
    -L dependency=$OUT $ALL_EXT "$b" --out-dir $OUT/bins
done

echo "== criterion benches"
for b in crates/bench/benches/*.rs; do
  name=$(basename "$b" .rs)
  echo "  -- $name"
  rustc --edition 2021 --crate-type bin --crate-name "bench_$name" --emit=metadata \
    -L dependency=$OUT $ALL_EXT --extern criterion=$OUT/libcriterion.rlib \
    "$b" --out-dir $OUT/bins
done

echo "== examples"
for e in examples/*.rs; do
  name=$(basename "$e" .rs)
  echo "  -- $name"
  rustc --edition 2021 --crate-type bin --crate-name "$name" --emit=metadata \
    -L dependency=$OUT $ALL_EXT "$e" --out-dir $OUT/bins
done

echo "ALL CHECKS PASSED"

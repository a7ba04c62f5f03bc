#!/bin/bash
# Offline test runner: builds every unit- and integration-test target that
# does not depend on `proptest` against the stub externals, and RUNS them.
# Requires tools/offline/check.sh to have been run first (it produces the
# rlibs under target/offline/out). See tools/offline/README.md.
#
# proptest cannot be compiled from stubs (procedural strategy machinery),
# so crates/*/tests/prop_*.rs, crates/core/tests/prop_algorithms.rs and
# crates/rstar/tests/cache.rs are skipped here; they still run under
# `cargo test` wherever the registry is reachable.
set -e
cd "$(dirname "$0")/../.."
OUT=target/offline/out
T=$OUT/tests
mkdir -p "$T"

EXT_BYTES="--extern bytes=$OUT/libbytes.rlib"
EXT_PL="--extern parking_lot=$OUT/libparking_lot.rlib"
EXT_RAND="--extern rand=$OUT/librand.rlib"
EXT_GEOM="--extern sqda_geom=$OUT/libsqda_geom.rlib"
EXT_STORAGE="--extern sqda_storage=$OUT/libsqda_storage.rlib"
EXT_SIM="--extern sqda_simkernel=$OUT/libsqda_simkernel.rlib"
EXT_OBS="--extern sqda_obs=$OUT/libsqda_obs.rlib"
EXT_RSTAR="--extern sqda_rstar=$OUT/libsqda_rstar.rlib"
EXT_CORE="--extern sqda_core=$OUT/libsqda_core.rlib"
EXT_SSTREE="--extern sqda_sstree=$OUT/libsqda_sstree.rlib"
EXT_DATASETS="--extern sqda_datasets=$OUT/libsqda_datasets.rlib"
EXT_ANALYSIS="--extern sqda_analysis=$OUT/libsqda_analysis.rlib"
EXT_BENCH="--extern sqda_bench=$OUT/libsqda_bench.rlib"
ALL_EXT="$EXT_GEOM $EXT_STORAGE $EXT_SIM $EXT_RSTAR $EXT_CORE $EXT_DATASETS
         $EXT_ANALYSIS $EXT_SSTREE $EXT_BENCH $EXT_OBS $EXT_RAND
         --extern sqda=$OUT/libsqda.rlib"

t() { # name src externs...
  local name=$1 src=$2; shift 2
  echo "== $name"
  rustc --edition 2021 --test --crate-name "$name" -L dependency=$OUT "$@" \
    "$src" -o "$T/$name"
  "$T/$name" -q
}

# Unit tests (the #[cfg(test)] modules inside each crate's src tree).
t geom_unit crates/geom/src/lib.rs
t storage_unit crates/storage/src/lib.rs $EXT_BYTES $EXT_RAND $EXT_PL
t simkernel_unit crates/simkernel/src/lib.rs $EXT_RAND
t obs_unit crates/obs/src/lib.rs $EXT_STORAGE
t rstar_unit crates/rstar/src/lib.rs $EXT_GEOM $EXT_STORAGE $EXT_BYTES $EXT_PL $EXT_RAND
t core_unit crates/core/src/lib.rs $EXT_GEOM $EXT_STORAGE $EXT_RSTAR $EXT_SIM $EXT_OBS $EXT_RAND
t sstree_unit crates/sstree/src/lib.rs $EXT_GEOM $EXT_STORAGE $EXT_CORE $EXT_BYTES
t datasets_unit crates/datasets/src/lib.rs $EXT_GEOM $EXT_RAND
t analysis_unit crates/analysis/src/lib.rs $EXT_GEOM $EXT_RSTAR $EXT_STORAGE $EXT_SIM $EXT_OBS $EXT_RAND
t bench_unit crates/bench/src/lib.rs $EXT_GEOM $EXT_STORAGE $EXT_SIM $EXT_RSTAR \
  $EXT_CORE $EXT_DATASETS $EXT_ANALYSIS $EXT_SSTREE $EXT_OBS $EXT_RAND
t cli_unit crates/cli/src/main.rs $EXT_GEOM $EXT_STORAGE $EXT_SIM $EXT_RSTAR \
  $EXT_CORE $EXT_DATASETS $EXT_ANALYSIS $EXT_OBS $EXT_RAND

# Integration tests (crates/*/tests/*.rs without proptest).
t simkernel_queueing crates/simkernel/tests/queueing_theory.rs $EXT_SIM $EXT_RAND
t rstar_tree_ops crates/rstar/tests/tree_ops.rs $ALL_EXT
t rstar_persistence crates/rstar/tests/persistence.rs $ALL_EXT
t rstar_layout_equivalence crates/rstar/tests/layout_equivalence.rs $ALL_EXT
t rstar_external_build crates/rstar/tests/external_build.rs $ALL_EXT
t sstree_ops crates/sstree/tests/sstree_ops.rs $ALL_EXT
t analysis_validation crates/analysis/tests/validation.rs $ALL_EXT
t core_algorithms crates/core/tests/algorithms.rs $ALL_EXT
t core_exact_algorithms crates/core/tests/exact_algorithms.rs $ALL_EXT
t core_hot_allocs crates/core/tests/hot_allocs.rs $ALL_EXT
t core_simulation crates/core/tests/simulation.rs $ALL_EXT
t core_observability crates/core/tests/observability.rs $ALL_EXT
t core_concurrency crates/core/tests/concurrency.rs $ALL_EXT
t core_extensions crates/core/tests/extensions.rs $ALL_EXT
t core_tighter_threshold crates/core/tests/tighter_threshold.rs $ALL_EXT
t core_faults crates/core/tests/faults.rs $ALL_EXT
t core_backend_parity crates/core/tests/backend_parity.rs $ALL_EXT
t end_to_end tests/end_to_end.rs $ALL_EXT

# The CLI's process-level tests find the binary through the compile-time
# variable cargo would set, so link a `sqda` for them first.
echo "== sqda (bin)"
rustc --edition 2021 --crate-type bin --crate-name sqda -L dependency=$OUT $ALL_EXT \
  crates/cli/src/main.rs -o "$T/sqda"
CARGO_BIN_EXE_sqda="$PWD/$T/sqda" t cli_e2e crates/cli/tests/cli_e2e.rs

echo "ALL OFFLINE TESTS PASSED"

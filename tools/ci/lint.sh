#!/bin/bash
# CI `lint`: formatting, then clippy with warnings as errors, then the
# `unsafe` rule: only sqda-storage (its `preadv2` call) and the
# `experiment` binary (its counting allocator) may hold `unsafe`, so every
# other crate root must carry `#![forbid(unsafe_code)]`.
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
for root in src/lib.rs crates/*/src/lib.rs crates/*/src/main.rs crates/bench/src/bin/*.rs; do
  [ "$root" = crates/storage/src/lib.rs ] && continue
  grep -qx '#!\[forbid(unsafe_code)\]' "$root" ||
    { echo "lint: $root lacks #![forbid(unsafe_code)]" >&2; exit 1; }
done

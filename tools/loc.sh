#!/bin/bash
# Code lines per crate: every src/**/*.rs up to its first `#[cfg(test)]`,
# blank lines and `//` comment lines (docs included) left out. With file
# arguments, counts those files instead (one total).
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # files...
  local f n=0
  for f in "$@"; do
    n=$((n + $(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
                    !/^[[:space:]]*($|\/\/)/ { c++ } END { print c + 0 }' "$f")))
  done
  echo "$n"
}

if [ $# -gt 0 ]; then count "$@"; exit; fi
total=0
for crate in crates/*/; do
  n=$(count $(find "$crate/src" -name '*.rs' | sort))
  printf '%-12s %6d\n' "$(basename "$crate")" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"

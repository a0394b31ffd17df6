#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload corpus|large|serve --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
else
  dune=(opam exec -- dune)
fi
"${dune[@]}" build --root . --build-dir .bench_build --profile release --cache=disabled ./perfbench/bench.exe 1>&2
exec ./.bench_build/default/perfbench/bench.exe "$@"

#!/usr/bin/env bash
# Build the benchmark from source, then run one workload in this process:
#
#   bash benchmark/run.sh --workload chip.trace --seed 2008 --seconds 10 --trace 0
#
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the JSON result.  Any further arguments (--out FILE,
# --spans FILE, --fast) pass through to `protemp_bench.exe run`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The shared dune cache lives outside the tree; build without it.
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./benchmark/protemp_bench.exe 1>&2
exec ./_build/default/benchmark/protemp_bench.exe run "$@"

#!/usr/bin/env bash
# Benchmark entry point, run from the root of a checkout: builds
# fl_bench from the checkout's sources (into ./_build, with dune's
# shared cache off) and runs it with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload steady --seed 7 --seconds 20 --trace 0
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) is not the root of a full checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled exec dune exec --root . --display quiet \
  bench/e2e/fl_bench.exe -- "$@"

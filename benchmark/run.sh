#!/usr/bin/env bash
# Builds the obda server and the benchmark from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload uni-read --seed 20140614 --seconds 18 --trace 0
#   bash benchmark/run.sh --smoke
#
# See benchmark/README.md for the workloads, metrics and flags.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "benchmark/run.sh: run this from the root of a tgdlib checkout" >&2
  exit 2
fi

# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . bin/obda.exe benchmark/obdabench.exe >&2
exec ./_build/default/benchmark/obdabench.exe "$@"

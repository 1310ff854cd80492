#!/usr/bin/env bash
# Build the benchmark and the mutexlb CLI from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload certify-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to standard error, so
# the last line of standard output is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no mutexlb sources here (dune-project, lib/, bin/)" >&2
  exit 2
fi

# no shared build cache: the run writes only inside the checkout
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/mutexlb.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

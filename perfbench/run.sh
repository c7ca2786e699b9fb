#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result. Everything the
# build and the run write stays inside the checkout (_build/, .perfbench/).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "perfbench: no dune-project here; run from a full checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
mkdir -p .perfbench
# runtime_events rings (traced runs only) are created here and removed at exit
export OCAML_RUNTIME_EVENTS_DIR=.perfbench
exec ./_build/default/perfbench/perfbench.exe "$@"

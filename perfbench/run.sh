#!/usr/bin/env bash
# Build the daemon and the benchmark from this checkout's sources, then
# run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout.  Build output goes to stderr; the
# benchmark's last line of stdout is its JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a fairsched checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bin/fairsched.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe --fairsched _build/default/bin/fairsched.exe "$@"

#!/usr/bin/env bash
# Build the benchmark from source, then run one workload.
#
#   bash s4perf/run.sh --workload nfs-smallfile|array-bulk|wire-deploy \
#        --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to _build/ and run
# records and spans to .s4perf/, both inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# Build output goes to stderr: the last line of stdout is the result.
dune build --root . -j 2 ./s4perf/src/main.exe 1>&2
# Run on one CPU (the last). A virtual host steals CPU from a guest in
# proportion to the vCPUs it keeps busy, and waking a thread on a
# descheduled vCPU costs milliseconds: on two vCPUs that made the
# wire-deploy figures swing by 2x between runs. The wire-deploy server
# process inherits the pinning.
allowed=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status 2>/dev/null || true)
cpu=${allowed##*[,-]}
if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" ./_build/default/s4perf/src/main.exe "$@"
fi
exec ./_build/default/s4perf/src/main.exe "$@"

#!/bin/sh
# Build dfsm and the benchmark from source in the current checkout,
# then run the benchmark with the given arguments.  Run from the root
# of the repository:
#
#   sh bench/e2e/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; without the repository's sources the
# build fails and the script exits non-zero without a result.  The
# shared dune cache is off so that nothing is written outside the
# checkout.
set -e
DUNE_CACHE=disabled dune build --root . ./bin/dfsm_cli.exe ./bench/e2e/dfsm_bench.exe 1>&2
exec ./_build/default/bench/e2e/dfsm_bench.exe "$@"

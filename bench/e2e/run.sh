#!/bin/sh
# Build the deptest CLI and the end-to-end benchmark from source, then
# run the benchmark with the given arguments. Run from the root of a
# deptest checkout, e.g.
#
#   sh bench/e2e/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# See bench/e2e/README.md for the workloads and metrics.
set -eu

if [ ! -f dune-project ] || [ ! -f bin/deptest_cli.ml ] || [ ! -d lib ]; then
  echo "run.sh: not the root of a deptest checkout (needs dune-project, bin/, lib/)" >&2
  exit 2
fi

# The build log goes to stderr: the last line of stdout is the result.
# The shared dune cache is off so that nothing is written outside the
# checkout.
dune build --root . --cache=disabled \
  ./bin/deptest_cli.exe ./bench/e2e/main.exe 1>&2

exec ./_build/default/bench/e2e/main.exe \
  --deptest ./_build/default/bin/deptest_cli.exe "$@"

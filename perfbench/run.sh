#!/bin/sh
# Build socuml and the benchmark from source, then run the benchmark.
# Usage: sh perfbench/run.sh --workload warm|edit|verify --seed N \
#          --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./bin/socuml.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --socuml ./_build/default/bin/socuml.exe "$@"

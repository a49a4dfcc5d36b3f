#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash perfbench/run.sh --workload search_hot --seed 1 --seconds 20 --trace 0
# Run from the repository root. Everything the build and the run write stays
# under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"

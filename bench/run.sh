#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; the
# `command` of BENCHMARK.json. Everything the build writes — the binary and
# Go's build cache — stays under .bench_build/, so a run reads and writes
# only inside its checkout. The first build compiles the standard library
# into the fresh cache (about a minute); later ones are cache hits.
set -euo pipefail
# The library is the rest of the module: without it there is nothing to
# measure, and a go.mod found in some parent directory is not this one.
[ -f go.mod ] || { echo "bench/run.sh: no go.mod here; run from the root of a checkout" >&2; exit 2; }
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/aompbench" ./bench
exec "$out/aompbench" "$@"

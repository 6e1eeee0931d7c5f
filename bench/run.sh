#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout: bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, Go's temporary files, the binary, WAL directories and
# trace files all live under .bench_build/. The first build in a checkout
# compiles the standard library into that cache and takes about a minute;
# later ones take under a second.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (go.mod and internal/ are missing here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"

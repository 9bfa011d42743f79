#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#     bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# from the root of a checkout. Everything the build and the run write —
# the Go build cache, the binary, span files — goes under .bench_build/
# in the checkout; nothing outside the checkout is read or written.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/main.go ]; then
	echo "bench/run.sh: run from the root of a checkout (no go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
HOME="$build/home" \
XDG_CONFIG_HOME="$build/home/.config" \
XDG_CACHE_HOME="$build/home/.cache" \
GOCACHE="$build/go-cache" \
GOPATH="$build/go-path" \
GOMODCACHE="$build/go-path/pkg/mod" \
GOTMPDIR="$build/tmp" \
GOTOOLCHAIN=local \
GOFLAGS=-mod=mod \
	go build -o "$build/bench" ./bench

exec "$build/bench" -out "$build" "$@"

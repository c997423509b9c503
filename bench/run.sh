#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root; arguments pass through to the benchmark, e.g.
#
#   bash bench/run.sh --workload hop-warm --seed 3 --seconds 20 --trace 0
#
# Every build product and the Go build cache stay under .bench_build in
# the checkout, and nothing is fetched over the network.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ] || [ ! -d cmd/sodd ]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, bench/ and cmd/sodd)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOPROXY=off GOTOOLCHAIN=local GOENV=off

(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root . "$@"

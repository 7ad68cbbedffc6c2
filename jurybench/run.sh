#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run it from the root of the checkout:
#
#   bash jurybench/run.sh --workload paper-sweep --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, binary, scratch run stores, span
# files) goes under .bench_build/ in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd jurybench && go build -o "$build/jurybench" .)

commit=unknown
if [ -d .git ]; then
	commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
exec "$build/jurybench" --commit "$commit" --out "$build" "$@"

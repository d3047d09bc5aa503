#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the lifecycle benchmark from
# source and runs it with the driver's arguments. Everything the build and the
# run leave behind (Go build cache, binary, temp dirs) stays under
# .bench_build/ in the checkout; traces go to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off TMPDIR="$build/tmp"
go build -C "$here" -o "$build/lifecycle" .
exec "$build/lifecycle" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there with the given arguments. Everything
# the Go tool writes (build cache, work directories, its own telemetry
# counters) is pointed into .bench_build/ too, so that nothing is
# written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C bench -o "$build/compass-bench" .
exec "$build/compass-bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; every argument is
# passed through (see main.go). Go's build cache is kept under
# .bench_build/ so that nothing outside the checkout is written; the first
# run in a fresh checkout therefore compiles the standard library too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$build/fsdbench" .)
exec "$build/fsdbench" "$@"

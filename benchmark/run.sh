#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# started from, then runs it with the given flags. Every path the build and
# the run write to (Go build cache included) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/gsqlbench" .)
cd "$root"
exec "$build/gsqlbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark binary into <checkout>/.bench_build and runs it with
# the given arguments. Everything the go tool writes — build cache, temp
# files, binaries — stays inside the checkout, and nothing is fetched.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" -root "$root" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and temporary file stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/home/go" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$(dirname "$0")" && go build -trimpath -o "$build/benchmark" .)
exec "$build/benchmark" "$@"

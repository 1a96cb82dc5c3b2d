#!/usr/bin/env bash
# Builds the study benchmark from the msgscope sources of the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash studybench/run.sh --workload discovery-38d --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the toolchain's config and telemetry files,
# temporary files and the study outputs all stay under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C "$root/studybench" build -o "$build/studybench" . >&2
exec "$build/studybench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout) and runs it. Everything the go tool writes — build cache,
# module cache, its own telemetry counters — is pointed inside the
# checkout too, so a run leaves nothing outside it.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/bench/run.sh" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/bench" -o "$build/tdpbench" .
exec "$build/tdpbench" "$@"

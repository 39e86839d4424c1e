#!/usr/bin/env bash
# Builds the benchmark from the sources of the current directory (the
# repository root) and runs it with the given arguments. The Go build
# cache and everything else the toolchain writes stay under .bench_build.
set -euo pipefail
out=.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: otherwise the go command forks a detached upload
# process that outlives this script.
printf off > "$out/config/go/telemetry/mode"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOPATH="$PWD/$out/gopath" \
	XDG_CONFIG_HOME="$PWD/$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"

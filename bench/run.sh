#!/usr/bin/env bash
# Builds predintd and the benchmark harness from this checkout's source,
# then runs the harness with the given arguments from the repository
# root. Everything the builds write — the Go build cache, temporary
# files, both binaries — stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry in its default "local" mode the go command forks a
# detached sidecar that outlives the build; "off" keeps it from starting,
# so the benchmark leaves no process behind on any path out.
printf 'off\n' >"$out/config/go/telemetry/mode"
go build -o "$out/predintd" ./cmd/predintd
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -predintd "$out/predintd" "$@"

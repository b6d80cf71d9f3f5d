#!/bin/bash
# Builds metacommd and the benchmark from the checkout's sources into
# .bench_build, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload write_through --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build (the Go build cache included).
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/metacommd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/metacommd and perfbench/ are needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0
go build -o "$out/metacommd" ./cmd/metacommd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --build "$out" "$@"

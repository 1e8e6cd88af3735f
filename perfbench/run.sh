#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload archive-query --seed 1 --seconds 10 --trace 0
#
# The build cache, binary, run directories and span files all live under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in there too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off TZ=UTC
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"

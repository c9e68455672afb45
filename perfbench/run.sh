#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload construct --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The build cache, the binary and the trace
# files stay under .bench_build in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home"
export GOCACHE="$out/gocache" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOPATH="$out/home/go" GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

PERFBENCH_GIT_SHA=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
export PERFBENCH_GIT_SHA
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark harness from the repository's source and runs it.
# Run from the repository root:
#
#   bash bench/run.sh                                   # all workloads, both modes
#   bash bench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the harness binary, the result
# documents and the CPU profiles.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C bench build -buildvcs=false -o "$out/bench" .
exec "$out/bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with every
# argument passed through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload replay --seed 11 --seconds 25 --trace 0
#
# The binary, the Go build cache and the traced run's CPU profile stay
# under .bench_build/perfbench in the current directory; nothing is
# fetched over the network.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --profile-dir "$out" "$@"

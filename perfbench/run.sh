#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload mem-query --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry directory, and the benchmark's scratch files all live under
# .bench_build/ in the current directory, so a run writes nothing outside the
# checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --dir "$out" "$@"

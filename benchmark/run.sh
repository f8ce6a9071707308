#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload rmc1-cold --seed 3 --seconds 12 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# benchmark and rmserve binaries) stays under .bench_build at the root of
# the checkout, and nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/gopath" "$out/config" "$out/bin"
export GOCACHE="$out/cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
cd "$root/benchmark"
go build -o "$out/bin/benchmark" .
cd "$root"
exec "$out/bin/benchmark" "$@"

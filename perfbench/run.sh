#!/usr/bin/env bash
# Builds the benchmark program from the sources in this checkout and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload campaign-linux --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, module cache, binary) stays
# under .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS="" GOWORK=off
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"

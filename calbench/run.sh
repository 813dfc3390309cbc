#!/usr/bin/env bash
# Builds calbench from the checkout's sources and runs it with the given
# arguments. Run from the root of the checkout:
#
#   bash calbench/run.sh --workload serve-expand --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOENV=off
go -C "$root/calbench" build -o "$out/calbench" .
exec "$out/calbench" "$@"

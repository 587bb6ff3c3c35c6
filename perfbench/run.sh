#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root of a
# checkout. Every build artifact, cache and report stays under .bench_build/.
#
#   bash perfbench/run.sh --workload paper-airspace --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/perfbench-runs" "$@"

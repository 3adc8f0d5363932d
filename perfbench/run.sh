#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload daemon-mix --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in the
# checkout root. The build needs the parent module (../go.mod); without it the
# build fails and the script exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

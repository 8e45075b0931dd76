#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload daemon-wafer --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays in .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= TMPDIR="$out/tmp"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

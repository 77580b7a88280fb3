#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload programs --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the run's scratch files stay under
# .bench_build in the checkout. A tree without the repository's Go
# module around perfbench/ fails the build and exits non-zero.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep every file the go command writes inside the checkout, and never
# reach for the network: the module has no dependencies to fetch.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -out "$build/runs" "$@"

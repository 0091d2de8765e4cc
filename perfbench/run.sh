#!/usr/bin/env bash
# Builds the benchmark and the fleet binaries from the checkout it is run
# in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload search-cold --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare OLD_RESULTS_DIR NEW_RESULTS_DIR
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, run records, spans, fleet logs) goes under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/watosd || ! -d cmd/watos-router ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/watosd and cmd/watos-router not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
# Keep the toolchain's caches and state inside the checkout, and never let
# it reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/" ./perfbench ./cmd/watosd ./cmd/watos-router >&2
exec "$out/bin/perfbench" "$@"

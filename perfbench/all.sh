#!/usr/bin/env bash
# Runs every workload once and prints each one's metrics by name and unit
# (a table on standard error, the JSON result line on standard output):
#
#   bash perfbench/all.sh [SEED [SECONDS [TRACE]]]
#
# TRACE 0 (the default) prints the end-to-end metrics, 1 the per-layer ones.
set -euo pipefail
seed="${1:-1}" seconds="${2:-30}" trace="${3:-0}"
for w in search-cold search-ga routed-mix; do
	echo "== $w (seed $seed, ${seconds}s, trace $trace)" >&2
	bash "$(dirname "$0")/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
done

.PHONY: build test race bench bench-smoke bench-compare router-smoke chaos-smoke async-smoke overload-smoke prefetch-smoke figures

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Tier-2 performance trajectory: runs the benchmark suite in-process with
# -benchmem semantics (best of 3 timed loops per benchmark) and writes
# BENCH_pr9.json (ns/op, allocs/op, B/op per benchmark, service +
# routed-shard jobs/sec and dedup rates, the kill-one-shard-mid-burst
# resilience numbers, the async-sweep time-to-first-row /
# priority-latency / result-cache-repeat entries, the 2x-saturation
# goodput + interactive-p95 pair with overload protection on vs off —
# which fails the run if protection does not win both — the trace-replay
# prefetch pair (warm-hit rate + mean demand latency with the speculative
# lane on vs off, failing the run unless prefetch wins the hit rate) —
# plus the speedups vs the recorded PR-1..PR-9 baselines and the in-run
# PR3-era annealer full-re-evaluation baseline).
bench:
	go run ./cmd/bench -out BENCH_pr10.json

# Fast regression gate for the search inner loops: the zero-alloc
# assertions of the scalar annealer swap path, the annealer's
# ScorerBatch Eval/Commit cycle and the GCMR allocation bound (the
# benchmarks only report allocs, they don't fail on them) plus one
# iteration of each annealer/swap-kernel/placement/GA and GCMR/BuildOptions
# benchmark, and 10 s each of fuzzing GCMR against its unpruned reference
# and the swap kernel against the scalar SwapDelta, so a broken or
# allocating hot path fails in seconds without waiting for the full bench
# run.
bench-smoke:
	go test -run 'TestScorerSwapZeroAlloc|TestScorerBatchZeroAlloc' -count=1 ./internal/placement
	go test -run '^$$' -bench 'BenchmarkAnnealSwap$$|BenchmarkAnnealSwapBatch|BenchmarkOptimizePlacement|BenchmarkGAGeneration' -benchtime=1x -benchmem .
	go test -run 'TestGCMRAllocs' -bench 'BenchmarkGCMR|BenchmarkBuildOptions' -benchtime=1x -benchmem -count=1 ./internal/recompute
	go test -run '^$$' -fuzz FuzzGCMR -fuzztime 10s ./internal/recompute
	go test -run '^$$' -fuzz FuzzScorerBatchEval -fuzztime 10s ./internal/placement

# Compare two recorded perf trajectories (ns/op + allocs/op ratios, with a
# regression threshold). Usage:
#   make bench-compare OLD=BENCH_pr9.json NEW=BENCH_pr10.json
OLD ?= BENCH_pr9.json
NEW ?= BENCH_pr10.json
bench-compare:
	bash scripts/bench_compare.sh $(OLD) $(NEW)

# Sharded-tier smoke: 2 watosd shards + watos-router as real processes; a
# routed job and a scatter-gathered sweep must diff clean against in-process
# searches, and a third shard joining with -seed-from must serve a
# previously-routed job without a single cache miss.
router-smoke:
	bash scripts/router_smoke.sh

# Fault-injection smoke: 3 watosd shards + replicated watos-router as real
# processes; one shard is SIGKILLed while it holds a sweep leg and another is
# drained over HTTP — the routed sweep must stay byte-identical throughout,
# the replica placement must stay within the greedy recovery-load bound, and
# the drain inheritor must serve the handed-off slice with zero cold misses.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# Async-job smoke: 1 single-job-worker shard + router as real processes; six
# async bulk sweeps stack a deep sweep-leg backlog, an interactive job
# submitted behind it must finish while the last sweep still runs, the async
# merged record must diff clean against the in-process sweep, a repeat job
# must be served from the router's completed-result cache without crossing
# the fleet, and a prefetch-labelled sweep must finish with no degraded leg
# and no shard indicted.
async-smoke:
	bash scripts/async_smoke.sh

# Overload smoke: real processes under deliberate overload and brownout. A
# single-worker daemon under a background burst must shed over-budget work
# with 429 + Retry-After while an interactive job overtakes the backlog
# inside its deadline and a stale-deadline job expires without executing;
# a slow-but-alive shard (request stalls injected, healthz green) must trip
# the router's latency breaker, keep routed results byte-identical from the
# fast shard, and be readmitted by a half-open trial once the stall clears.
overload-smoke:
	bash scripts/overload_smoke.sh

# Prefetch smoke: a real watosd with the speculative cache-warming lane on.
# Demand submissions must land in the request trace with decoded sweep
# coordinates, an idle daemon must pre-evaluate the predicted sweep neighbor
# so its later demand submission is a prefetch-attributed warm hit
# (byte-identical to a lane-off evaluation), and a demand burst must cancel
# queued speculation instantly.
prefetch-smoke:
	bash scripts/prefetch_smoke.sh

figures:
	go run ./cmd/figures

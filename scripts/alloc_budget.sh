#!/usr/bin/env bash
# Allocation-budget smoke: run the headline mixed benchmarks, the Query
# Scheduler's control loop (Fig6: 1,440 control ticks and their plan
# history), one greedy and one grid solve of a three-class plan
# (SolverGreedy, SolverGrid), the engine's event loop under identical
# and under mixed demands (EngineHotPath, EngineMixedDemand), the fleet's
# routing benchmarks, the patroller's intercept/release/complete cycle
# (PatrollerChurn), the tracer's emit benchmark, the client pool's
# million-client rotation (MillionClients), a completion event re-arming
# itself from its callback (ClockRearmFiring) and one query draw
# (WorkloadGenerate) once with -benchmem and fail
# if bytes allocated per op regress more than 10% over the checked-in
# budget
# (scripts/alloc_budget.txt). The budget encodes the hot path's
# allocation discipline — pooled query/span objects, one query freelist
# per fleet, a slot slice for the executing set, dense per-class slices,
# per-class plan rows, plan vectors the grid solver reuses across
# candidates, pooled patroller entries that outlive no query, batched
# trace dispatch, parked clients held as rng cursors — as a CI
# regression target rather than a one-off win.
# EngineHotPath's, EngineMixedDemand's, RouterRoute's, PatrollerChurn's,
# TraceEmit's, ClockRearmFiring's and WorkloadGenerate's budgets are
# 0 B/op, so any allocation on a warm engine event, a warm routed submit,
# a warm managed query, a warm traced query, a completion re-arm or a
# query draw fails.
#
# Usage:
#   scripts/alloc_budget.sh            # compare against the budget
#   scripts/alloc_budget.sh -update    # rewrite the budget from this run
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET=scripts/alloc_budget.txt
BENCH='^(BenchmarkSystemCostLimit|BenchmarkFig2|BenchmarkFig6|BenchmarkSolverGreedy|BenchmarkSolverGrid|BenchmarkEngineHotPath|BenchmarkEngineMixedDemand|BenchmarkRouterRoute|BenchmarkRoutingFleet|BenchmarkPatrollerChurn|BenchmarkTraceEmit|BenchmarkMillionClients|BenchmarkClockRearmFiring|BenchmarkWorkloadGenerate)$'

OUT=$(go test -run='^$' -bench="$BENCH" -benchtime=1x -benchmem -timeout 1800s .)
echo "$OUT"

# "BenchmarkFig2-8  1  ... 123456 B/op ..." -> "Fig2 123456"
MEASURED=$(echo "$OUT" | awk '/^Benchmark/ {
    name=$1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
    for (i = 3; i <= NF; i++) if ($(i) == "B/op") print name, $(i-1)
}')
if [[ -z "$MEASURED" ]]; then
    echo "alloc-budget: no B/op measurements parsed" >&2
    exit 1
fi

if [[ "${1:-}" == "-update" ]]; then
    echo "$MEASURED" > "$BUDGET"
    echo "alloc-budget: updated $BUDGET"
    exit 0
fi

fail=0
while read -r name bytes; do
    budget=$(awk -v n="$name" '$1 == n { print $2 }' "$BUDGET")
    if [[ -z "$budget" ]]; then
        echo "alloc-budget: $name missing from $BUDGET (run scripts/alloc_budget.sh -update)" >&2
        fail=1
        continue
    fi
    limit=$((budget + budget / 10))
    if ((bytes > limit)); then
        echo "alloc-budget: FAIL $name: $bytes B/op exceeds budget $budget (+10% = $limit)" >&2
        fail=1
    else
        echo "alloc-budget: ok   $name: $bytes B/op within budget $budget (+10% = $limit)"
    fi
done <<< "$MEASURED"
exit $fail

#!/bin/sh
# Benchmark trajectory: run the suite in bench_test.go with -benchmem and
# record the results as BENCH_qsim.json (parsed by cmd/benchjson; format
# documented in README "Benchmark trajectory"). Each experiment benchmark
# is one full simulated run, so the default whole-suite pass takes a few
# minutes; narrow it with e.g.
#
#	BENCH=BenchmarkClock ./scripts/bench.sh     # just the clock kernel
#	BENCHTIME=3x ./scripts/bench.sh             # 3 iterations per bench
#	COUNT=5 ./scripts/bench.sh                  # 5 runs per bench: median + min/max
#	OUT=/tmp/b.json ./scripts/bench.sh          # write elsewhere
#
# The timestamp and toolchain version are captured here and passed to
# benchjson as flags: the Go tools in this repository are forbidden from
# reading the wall clock (qlint's wallclock invariant), and the shell is
# where that boundary sits.
set -eu

cd "$(dirname "$0")/.."

BENCH=${BENCH:-.}
BENCHTIME=${BENCHTIME:-1x}
COUNT=${COUNT:-1}
TIMEOUT=${TIMEOUT:-30m}
OUT=${OUT:-BENCH_qsim.json}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# No pipe into tee here: POSIX sh has no pipefail, and a truncated
# benchmark log must fail the script, not get recorded as a trajectory
# point. The whole-suite pass is ~15 minutes of full simulated runs,
# hence the explicit -timeout.
if ! go test -run='^$' -bench="$BENCH" -benchtime="$BENCHTIME" -count="$COUNT" \
	-benchmem -timeout "$TIMEOUT" ./... >"$tmp" 2>&1; then
	cat "$tmp"
	echo "bench.sh: benchmark run failed" >&2
	exit 1
fi
cat "$tmp"
go run ./cmd/benchjson \
	-count "$COUNT" \
	-date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-go "$(go version)" \
	-o "$OUT" <"$tmp"
echo "wrote $OUT"

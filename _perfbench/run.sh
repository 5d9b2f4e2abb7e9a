#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload in a fresh
# process. Run it from the repository root:
#
#	bash _perfbench/run.sh --workload paper-qs --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache stays under .bench_build/ in the
# current directory. The directory name starts with "_" so that the
# root module's ./... patterns and qlint's tree walk skip it: the
# benchmark reads the wall clock and getrusage, which the simulator's
# own determinism lint forbids.
set -euo pipefail

if [[ ! -f go.mod || ! -f _perfbench/go.mod ]]; then
	echo "run.sh: run from the repository root (go.mod and _perfbench/go.mod must both exist)" >&2
	exit 2
fi

build="$PWD/.bench_build"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd _perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

#!/bin/sh
# Repository check gate: formatting, build, vet (the benchmark harness
# too), qlint, full tests, then the race detector over the whole tree.
#
# - gofmt -l fails the gate on any unformatted file.
# - qlint (cmd/qlint) statically enforces the simulation invariants —
#   no wall-clock time, no math/rand, no out-of-pool goroutines, no
#   order-sensitive map iteration, no exact float equality, no freelist
#   protocol violations, no allocations on //qlint:hotpath-annotated
#   chains — so a new time.Now,
#   stray go statement, or leaked pooled pointer in simulation code
#   fails the gate before anything runs.
# - The race pass guards the parallel experiment layer's isolation
#   invariant (internal/experiment/parallel.go): every sweep fans seeded
#   runs across goroutines, so any shared mutable state between runs
#   surfaces here. Pass RACEFLAGS= (empty) to run the complete suite
#   under race instead of the -short subset.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "check.sh: unformatted files (run gofmt -w .)"
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# ./... skips _-prefixed directories, so only this step compiles the
# frozen benchmark harness (its own module, replacing repro with ../):
# deleting a symbol it calls fails here.
echo "== (cd _perfbench && go vet ./...)"
(cd _perfbench && go vet ./...)

echo "== qlint ./..."
go run ./cmd/qlint ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ${RACEFLAGS--short} ./..."
go test -race ${RACEFLAGS--short} -timeout 30m ./...

echo "check.sh: all green"

# Tier-1 verification is `make check` (fmt + build + vet + lint + tests);
# `make race` adds the race detector over the whole tree, including the
# parallel experiment pool (see internal/experiment/parallel.go).
# `make lint` runs qlint, the determinism & simulation-invariant analyzer
# (cmd/qlint; checks: wallclock, globalrand, maporder, goroutine,
# floateq, poolsafety, hotalloc — see DESIGN.md "Lint
# invariants"). scripts/check.sh bundles all of it for CI.

GO ?= go

.PHONY: build test vet lint race bench check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/qlint ./...

test:
	$(GO) test ./...

# The race detector multiplies runtime ~10x; -short skips the slowest
# full-fidelity experiment tests while still racing the worker pool,
# the determinism sweeps, and every kernel test. Use RACEFLAGS= to run
# the complete suite under race.
RACEFLAGS ?= -short
race:
	$(GO) test -race $(RACEFLAGS) -timeout 30m ./...

# `make bench` runs the whole suite once with -benchmem and records the
# results as BENCH_qsim.json (see scripts/bench.sh for BENCH/BENCHTIME/COUNT/OUT
# overrides and README "Benchmark trajectory" for the JSON format).
bench:
	./scripts/bench.sh

check:
	./scripts/check.sh

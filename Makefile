GO ?= go

.PHONY: all build vet lint test race bench bench-smoke experiments

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# ptmlint enforces the determinism and address-hygiene contracts of
# DESIGN.md §6 (detrange, noclock, seedflow, archconst, statshape,
# deprflow, obscover, errwrap, goscope). Blocking: any finding fails the
# build. The binary is built first so the timeout guards the analysis
# itself: whole-module type checking plus the call graph must stay under
# 60 seconds, keeping the pre-commit loop usable.
LINT_BIN ?= $(or $(TMPDIR),/tmp)/ptmlint
lint:
	$(GO) build -o $(LINT_BIN) ./cmd/ptmlint
	timeout 60 $(LINT_BIN)

# ./... skips the _perfbench module (its own go.mod), so it is vetted and
# tested explicitly: an internal API change must not break the benchmark.
# The registry determinism test (TestRegistryGolden in internal/sim) runs
# every experiment with 1 and 4 workers against testdata/golden;
# regenerate the references with
# `go test ./internal/sim -run TestRegistryGolden -update`.
test:
	$(GO) test ./...
	cd _perfbench && $(GO) vet ./... && $(GO) test -short ./...

# The engine's determinism contract, the simulator's per-scenario
# isolation, and the multi-tenant/migration machine tests (whose scenarios
# run under the parallel engine) are the properties the race detector
# guards; the heavy simulation packages elsewhere are race-free by
# construction (no goroutines) and would only slow this down.
race:
	$(GO) test -race ./internal/engine ./internal/sim ./internal/vm ./internal/migrate ./internal/faults ./internal/balloon

# The Pipeline* benchmarks track the batched hot path against the legacy
# one-access adapter at three layers (workload step, walker fast path, full
# machine loop). BENCH_pipeline.json is committed so future changes have a
# perf trajectory to diff against.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench='Pipeline' -benchtime=2s -run=^$$ -json \
		./internal/workload ./internal/nested ./internal/vm . \
		> BENCH_pipeline.json

# Compile-and-run rot check for the bench harness; single iteration, no
# timing claims.
bench-smoke:
	$(GO) test -bench='Pipeline' -benchtime=1x -run=^$$ \
		./internal/workload ./internal/nested ./internal/vm .

experiments:
	$(GO) run ./cmd/experiments -quick

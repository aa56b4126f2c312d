GO ?= go

.PHONY: all build vet lint test race fuzz bench bench-smoke experiments

all: build vet lint test

build:
	$(GO) build ./...

# gofmt is a gate: any unformatted file (listed by gofmt -l) fails vet.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

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
# isolation, the multi-tenant/migration machine tests (whose scenarios run
# under the parallel engine), and the PaRT's fine-grained locking (its tests
# fault one table from several goroutines) are the properties the race
# detector guards; the other simulation packages start no goroutines and
# would only slow this down. CI runs this target.
race:
	$(GO) test -race ./internal/engine ./internal/sim ./internal/vm ./internal/migrate ./internal/faults ./internal/balloon ./internal/core

# Every Fuzz* target in the module runs for 10 s of coverage-guided
# fuzzing (go test accepts one -fuzz target per package run). Plain
# go test already replays each target's seed corpus under testdata/fuzz.
# Minimizing a new input may take 3 s, not the default 60 s: a target
# whose input runs for milliseconds would otherwise spend its whole 10 s
# minimizing its first finds.
fuzz:
	@for f in $$(grep -rl --include='*_test.go' --exclude-dir=_perfbench --exclude-dir=testdata '^func Fuzz' .); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s -fuzzminimizetime 3s $$(dirname $$f) || exit 1; \
		done; \
	done

# The Pipeline* benchmarks track the hot path layer by layer: workload Step,
# the cache hierarchy and the two-level TLB alone, page-table lookups and
# walks alone, the walker's TLB-hit fast path against the full Translate,
# the machine loop, and the same run through the public facade; and the
# fault path's buddy allocator: page and group alloc/free, and the bytes
# New spends per frame.
# BENCH_pipeline.json is committed so future changes have a perf
# trajectory to diff against. Every package in PIPELINE_PKGS keeps at least
# one Pipeline benchmark.
PIPELINE_PKGS = ./internal/workload ./internal/cache ./internal/tlb ./internal/pagetable ./internal/nested ./internal/vm ./internal/buddy .
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench='Pipeline' -benchtime=2s -run=^$$ -json $(PIPELINE_PKGS) > BENCH_pipeline.json

# Compile-and-run rot check for the bench harness; single iteration, no
# timing claims.
bench-smoke:
	$(GO) test -bench='Pipeline' -benchtime=1x -run=^$$ $(PIPELINE_PKGS)

experiments:
	$(GO) run ./cmd/experiments -quick

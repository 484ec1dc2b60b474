GO ?= go

# Headline benchmarks guarded per-PR: the exact-arithmetic substrate and
# its heaviest consumers. Keep in sync with .github/workflows/ci.yml.
# BenchmarkSimulator's N=100k sparse cases are excluded from the smoke
# (seconds per iteration). These are regression gates only; the
# performance ledger is bench/run.sh (BENCHMARK.json).
BENCH_SMOKE = BenchmarkChecker|BenchmarkMaxRelevantRatio|BenchmarkIncrementalChecker
BENCH_SIM_SMOKE = BenchmarkSimulator/.*/^n=(8|100|10000)$$
# The N=10^6 ring is seconds per iteration, so bench-smoke runs it alone,
# once, under a hard time budget.
BENCH_SIM_SCALE = BenchmarkSimulator/topo=ring/^n=1000000$$

.PHONY: all build vet test race bench bench-smoke fuzz-smoke fleet-bench cover cli-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs every test under the race detector in shuffled order; the
# determinism, conformance, differential and fault-plane suites all live
# in ./..., so no regex subset needs a second run.
race:
	$(GO) test -race -shuffle=on ./...

# bench runs the full paper evaluation (cmd/abcbench). CPUPROFILE= and
# MEMPROFILE= pass pprof output paths through, so engine regressions can
# be chased with real experiment traffic: `make bench CPUPROFILE=cpu.out`.
bench:
	$(GO) run ./cmd/abcbench $(if $(CPUPROFILE),-cpuprofile $(CPUPROFILE)) $(if $(MEMPROFILE),-memprofile $(MEMPROFILE))

# bench-smoke runs the headline benchmarks, the simulator grid, the
# fleet evaluation (fleet-bench) and the E18 cross-workload matrix
# briefly — enough to catch order-of-magnitude regressions, not to
# replace a real benchstat comparison — then one N=10^6 RetainNone ring
# iteration, whose hard time budget catches throughput collapses at the
# scale target.
bench-smoke: fleet-bench
	$(GO) test -run=NONE -bench='$(BENCH_SMOKE)' -benchmem -benchtime=10x .
	$(GO) test -run=NONE -bench='$(BENCH_SIM_SMOKE)' -benchmem -benchtime=10x .
	$(GO) test -run=NONE -bench='BenchmarkE18_CrossWorkload' -benchtime=1x .
	$(GO) test -run=NONE -bench='$(BENCH_SIM_SCALE)' -benchmem -benchtime=1x -timeout 15m .

# fuzz-smoke gives each fuzz target a short budget (FUZZTIME): the rat
# differentials, whose seed corpus already pins the int64 overflow
# boundary, so even 10s runs cross the promotion/demotion paths; the
# fault grammar; and the JSON trace reader behind abccheck.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzArith -fuzztime=$(FUZZTIME) ./internal/rat
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/rat
	$(GO) test -run=NONE -fuzz=FuzzParseFaults -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run=NONE -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME) ./cmd/abccheck

# fleet-bench records the serial vs 8-worker wall-clock of the full E1–E18
# evaluation through the runner (needs >= 8 hardware threads to show the
# speedup; see DESIGN.md decision 5).
fleet-bench:
	$(GO) test -run=NONE -bench='BenchmarkFleetExperiments' -benchtime=3x .

# cli-smoke drives abcsim end to end over the headline fault grids: a
# crash-at-step sweep, a Byzantine-budget grid, a recovery and partition
# sweep, Ω leader recovery, VLSI technology migration with a dead
# module, a watched 64-process full mesh (deep causal chains through
# the incremental checker over a sliding window), and the critical ratio
# of a 6.1·10^4-event ring broadcast (past where a graph-size strictness
# scale overflowed int64).
cli-smoke:
	$(GO) run ./cmd/abcsim -workload consensus -param algo=floodset -sweep faults=none,crash/1@0,crash/1@2 -runs 2
	$(GO) run ./cmd/abcsim -workload clocksync -sweep faults=byz/1@20,byz/1@60 -runs 2
	$(GO) run ./cmd/abcsim -workload broadcast -sweep faults=none,recover/1@2..4,partition/halves@2..5 -runs 2
	$(GO) run ./cmd/abcsim -workload omega -param faults=recover/p0@4..12 -runs 2
	$(GO) run ./cmd/abcsim -workload vlsi -sweep scale=1,1/3 -param faults=crash/1 -runs 2
	$(GO) run ./cmd/abcsim -workload broadcast -param n=64 -param target=20 -param trace=window/4096 -watch
	$(GO) run ./cmd/abcsim -workload broadcast -param n=1000 -param topology=ring -param target=30

# cover reports runner and sim coverage per function.
cover:
	$(GO) test -cover -coverprofile=cover.out ./internal/runner ./internal/sim
	$(GO) tool cover -func=cover.out

# ci runs the steps of the single CI job (.github/workflows/ci.yml), which
# calls these targets one by one.
ci: vet race cover fuzz-smoke bench-smoke cli-smoke

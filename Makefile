# Tiered verification for the DMDC reproduction.
#
#   make build       compile everything
#   make test        tier-1: full test suite (what CI gates on)
#   make check       vet + the API-surface gate (api.txt) + race-enabled
#                    tests for the concurrent packages (experiment runner,
#                    result cache, simulation service) — keeps the
#                    singleflight and worker-pool fixes fixed — plus the
#                    soundness suite (oracle, fault injection, watchdog),
#                    the wakeup-shadow scheduler cross-check, and a short
#                    fuzz pass over every fuzz target
#   make api-check   just the API-surface comparison
#   make chaos       kill/restart durability matrix under -race: SIGKILL a
#                    real dmdcd mid-matrix with a journal on disk, restart,
#                    prove zero lost / zero duplicated / byte-identical —
#                    plus peer-degradation chaos (a peer killed mid-fetch
#                    or serving corrupt entries must fall back to local
#                    compute, byte-identical)
#   make fleet-check three in-process dmdcd instances under -race: warm
#                    peer-fetch re-runs with zero re-simulations, journal
#                    lease handoff across drains, and leaked-lease
#                    adoption after a crash
#   make sample-check  the checkpoint/sampling gate under -race: byte-exact
#                    save/restore equivalence over the full golden matrix
#                    and the mid-pipeline white-box states, the sampled
#                    error-bound report, the distributed sampled run with a
#                    mid-run server kill, and the 5M-instruction
#                    sampled-vs-full speedup acceptance
#   make fuzz-short  90s split across the fuzz targets
#   make perfbench-check  vet + tests of the nested perfbench module, which
#                    compiles against the experiments/dserve surface
#   make wakeup-shadow  benchmark matrix with both issue schedulers in
#                    lockstep under -race: the scan drives, the event
#                    scheduler shadows every pick, any divergence fails
#   make bench       simulator-throughput benchmarks (BENCH_COUNT reps),
#                    medians recorded into BENCH_core.json via cmd/benchjson
#   make bench-smoke one-iteration run of the simulator benchmarks — a fast
#                    "do the benchmarks still work" gate, part of `check`
#   make bench-all   every artifact benchmark once (slow)
#   make report      regenerate the full paper report with a warm cache

GO ?= go
CACHE_DIR ?= .dmdc-cache
BENCH_COUNT ?= 5

.PHONY: all build test check vet api-check race soundness alloc-gate chaos fleet-check sample-check wakeup-shadow fuzz-short perfbench-check cover bench bench-smoke bench-all report clean-cache

all: build test check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# -short skips the slow paper-shape regressions (tier-1's job); the
# singleflight/worker-pool/cache concurrency tests all run in short mode.
race:
	$(GO) test -race -short ./internal/experiments/... ./internal/resultcache/... ./internal/core/... ./internal/dserve/...

# The soundness suite: lockstep oracle across every policy, the full
# fault-injection campaign, watchdog and wrong-path error paths, and the
# policy-level property tests.
soundness:
	$(GO) test -run 'Soundness|Oracle|Watchdog|WrongPath|Fault|Invariant' ./internal/core/... ./internal/soundness/... ./internal/lsq/... ./internal/experiments/...

# The scheduler cross-check: every benchmark on the primary and the
# IQ-pressure machines, scan and event schedulers in lockstep (shadow
# mode), plus the direct scan-vs-event fingerprint equivalence cells —
# all under the race detector.
wakeup-shadow:
	$(GO) test -race -run 'TestWakeupShadowMatrix|TestWakeupSchedulerEquivalence' -count 1 .

# 90 seconds of fuzzing split across the targets (seed corpora always run
# as part of tier-1; this explores beyond them).
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzPolicySoundness -fuzztime 25s ./internal/lsq/
	$(GO) test -run '^$$' -fuzz FuzzFaultSpecParse -fuzztime 10s ./internal/soundness/
	$(GO) test -run '^$$' -fuzz FuzzTraceEventExport -fuzztime 10s ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 15s ./internal/jobstore/
	$(GO) test -run '^$$' -fuzz FuzzWakeupScanEquivalence -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointRoundTrip -fuzztime 15s ./internal/core/

# The crash-safety matrix: journal replay edge cases, in-process
# restart-resume, and a real dmdcd SIGKILLed mid-matrix with its journal
# fsyncing to disk, all under the race detector.
chaos:
	$(GO) test -race -count 1 \
		-run 'TestChaos|TestServerRestartResume|TestJournal|TestCompaction|TestAutoCompaction|TestVersionSkew|TestAppend' \
		./internal/dserve/ ./internal/jobstore/

# The fleet gate (DESIGN.md §15): a cold matrix on one instance, warm
# re-runs on peers with zero re-simulations (the counters prove the
# GET /v1/cache path ran), a three-instance shared-store handoff chain,
# and leaked-lease adoption after a simulated crash — under -race.
fleet-check:
	$(GO) test -race -count 1 -run 'TestFleet' ./internal/dserve/

# The sampled-execution gate (DESIGN.md §14): byte-exact restore
# equivalence over the full golden matrix and the mid-pipeline white-box
# states, the pinned sampled-vs-full error-bound report, and the
# distributed sampled run with a mid-run server kill — all under -race —
# then the 5M-instruction speedup acceptance without the race detector's
# timing skew.
sample-check:
	$(GO) test -race -count 1 -run 'TestCheckpoint|TestFastForward|TestSampled|TestDistributedSampled' \
		. ./internal/core/ ./internal/experiments/ ./internal/dserve/
	DMDC_SAMPLE_SPEEDUP=1 $(GO) test -count 1 -run 'TestSampledSpeedup' -v ./internal/experiments/

# Whole-module coverage with a per-package summary; the total line is the
# number `check` prints at the end.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -1

# The public API surface of package dmdc, pinned byte-for-byte. After an
# intentional API change: `go run ./cmd/apicheck -update`, review the
# api.txt diff, commit it.
api-check:
	$(GO) run ./cmd/apicheck

# Allocation-budget gate: one pooled-arena simulation run, through dmdc.Run
# and through experiments.ExecuteJob in policy and run-key form, must stay
# within a fixed allocation count (see alloc_test.go), pinning the
# SoA/arena refactor's allocation-free hot loop.
alloc-gate:
	$(GO) test -run 'TestAllocationBudget' -count 1 .

# The repository benchmark (perfbench/) is its own Go module, outside
# tier-1; this keeps it compiling and its own tests passing against the
# experiments and dserve APIs it drives.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

check: vet api-check race soundness alloc-gate chaos fleet-check sample-check wakeup-shadow perfbench-check bench-smoke fuzz-short cover

# Core-simulator throughput, recorded. Medians over BENCH_COUNT repetitions
# land in the "current" section of BENCH_core.json; the "pre_pr8" section
# holds the numbers from just before the event-wakeup scheduler ("pre_pr6"
# pre-SoA/arena, "pre_pr3" pre-optimization), which the speedup ratios
# compare against.
bench:
	( $(GO) test -run '^$$' -bench 'BenchmarkSim(Baseline|DMDC|Telemetry)$$' -benchtime 30x -count $(BENCH_COUNT) -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSim(Full|Sampled)5M$$' -benchtime 1x -count $(BENCH_COUNT) -benchmem . ) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_core.json -base pre_pr8

bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSim(Baseline|DMDC|Telemetry|Sampled5M)$$' -benchtime 1x .

bench-all:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

report:
	$(GO) run ./cmd/experiments -cache-dir $(CACHE_DIR) -v -out report_full.txt

clean-cache:
	$(GO) run ./cmd/experiments -cache-dir $(CACHE_DIR) -cache-clear

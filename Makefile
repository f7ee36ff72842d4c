# Developer entry points. `make ci` runs the gates of CI's test job
# (.github/workflows/ci.yml) in the job's order: vet, tier-1 tests, the
# race detector, the concurrency tests at 1/2/4 cores, the chaos suite,
# the benchmark module and the executor microbenchmarks. The job also
# builds and prints `make loc` first and exports observability artifacts
# last.

GO ?= go

.PHONY: build loc test race race-cpu vet bench bench-build bench-exec chaos benchgate benchgate-update fuzz-smoke ci

build:
	$(GO) build ./...

# The code-size figure CHANGES.md quotes: raw lines (blanks and comments
# included) of non-test Go outside bench/ (.bench_build/ holds
# bench/run.sh's build outputs).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

test:
	$(GO) test ./...

# go vet plus a gofmt gate: any file gofmt would rewrite fails the build
# (.bench_build/ holds bench/run.sh's build outputs, not sources).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race ./...

# The packages with real concurrency (wire sessions, the driver's cancel
# watcher, the wave scheduler, exchange transport, the governor's FIFO
# admission queue, the plan cache's single-flight build, the metric
# registry's atomic counters, the store's loads beside partition and
# index scans) again at 1, 2 and 4 cores, plus the root
# package's concurrency tests (concurrent clients and ad-hoc planners,
# DDL, INSERT and ANALYZE beside planning, the plan-cache hammer, a plan's
# text rendered once by racing first executions, admission and overload
# races, Close/drain), its shared-entry tests (concurrent executions,
# with and without arguments, and executions under faults and adaptivity
# all reading one cached split plan) and the fault outcomes golden (the
# one with retries: GOMAXPROCS workers write retried attempts' ledger
# rows, which must price the same at every worker count): their ordering
# bugs depend on GOMAXPROCS. internal/fragment runs too because the split
# marks the operators whose rows reach a result, and
# TestResultRowsOutliveLaterExecutions holds such rows while concurrent
# executions borrow and release buffers: race builds overwrite released
# buffers with a sentinel (internal/exec/poison_race.go), so a result row
# left in lent storage shows there.
race-cpu:
	$(GO) test -race -cpu 1,2,4 ./driver ./internal/server ./internal/cluster ./internal/exec ./internal/fragment ./internal/governor ./internal/plancache ./internal/obs ./internal/storage
	$(GO) test -race -cpu 1,2,4 -run 'Concurrent|Hammer|PlanText|Admission|Overload|Close|SharedEntry|FaultOutcomesGolden|ResultRowsOutliveLaterExecutions' .

# The wall-clock benchmark is a nested module (bench/go.mod), so `./...`
# skips it; vet and test it against the engine in this checkout.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The executor microbenchmarks (pipeline shapes, hash join, hash
# aggregate, sender routing), the expression kernels' (BenchmarkExprKernels:
# TPC-H predicates and projection, interpreted vs compiled, ns/row), the
# planner's (BenchmarkOptimize: one Volcano run per TPC-H join query, with
# tickets/op), the served result path's (BenchmarkResultFrames: an
# orders-shaped result encoded into RowBatch frames and decoded into
# database/sql values, ns/row and allocs/row) and a prepared statement's
# fixed cost (BenchmarkPreparedLookup: the served_short lookups in-process,
# ns/op and allocs/op) and the store's set-up passes (BenchmarkAnalyze and
# BenchmarkBuildIndexes: ANALYZE and the index builds of TPC-H at SF 0.01
# on 4 sites), one iteration each: CI runs them so they keep compiling and
# running; measure with a larger -benchtime.
bench-exec:
	$(GO) test -run '^$$' -bench 'Pipeline|HashJoin|HashAggregate|SendRows|ExprKernels|Optimize|ResultFrames|PreparedLookup|Analyze|BuildIndexes' -benchmem -benchtime 1x ./internal/exec ./internal/expr ./internal/wire ./internal/storage .

# The per-query benchmarks (host ns/op of every TPC-H and SSB query) and
# the micro benchmarks (operators, scheduler); the paper's figures and
# tables come from cmd/benchrunner. GIGNITE_PARBENCH_SF overrides the
# BenchmarkParallelExecute scale factor.
bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# The fault-tolerance suite (chaos_test.go): seeded fault plans, replica
# failover, cancellation and goroutine-leak checks, twice under -race to
# shake out scheduling-dependent behaviour.
chaos:
	$(GO) test -race -count=2 -run 'TestChaos' .

# The benchmark-regression gate (TestBenchGate, part of `make test`):
# measure the committed BENCH_gate.json query set and fail on >tolerance
# modeled-time or shipped-bytes regressions. The measured signals are
# deterministic simnet values, so the gate is host-independent.
benchgate:
	$(GO) test -count=1 -v -run '^TestBenchGate$$' .

# Refresh the committed baseline after an intentional performance change;
# commit the resulting BENCH_gate.json diff.
benchgate-update:
	$(GO) test -count=1 -v -run '^TestBenchGate$$' . -update-gate

# Run every fuzz target of every package that has one briefly, seeded from
# the package's testdata/fuzz. `go test -fuzz` accepts one target and one
# package per invocation, hence the loops.
FUZZTIME ?= 30s
fuzz-smoke:
	@for p in $$(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for t in $$($(GO) test -list 'Fuzz.*' $$p | grep '^Fuzz'); do \
			echo "fuzzing $$p $$t for $(FUZZTIME)"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$p || exit 1; \
		done; \
	done

ci: vet test race race-cpu chaos bench-build bench-exec

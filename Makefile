# Developer entry points. CI (.github/workflows/ci.yml) runs `make ci`,
# which gates every PR on go vet and the race detector.

GO ?= go

.PHONY: build test race race-cpu vet bench bench-build bench-exec chaos overload plancache adaptive benchgate benchgate-update serve fuzz-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The packages with real concurrency (wire sessions, the driver's cancel
# watcher, the wave scheduler, exchange transport) again at 1, 2 and 4
# cores: their ordering bugs depend on GOMAXPROCS.
race-cpu:
	$(GO) test -race -cpu 1,2,4 ./driver ./internal/server ./internal/cluster ./internal/exec

# The wall-clock benchmark is a nested module (bench/go.mod), so `./...`
# skips it; vet and test it against the engine in this checkout.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The executor microbenchmarks (pipeline shapes, hash join, hash
# aggregate, sender routing), one iteration each: CI runs them so they
# keep compiling and running; measure with a larger -benchtime.
bench-exec:
	$(GO) test -run '^$$' -bench 'Pipeline|HashJoin|HashAggregate|SendRows' -benchmem -benchtime 1x ./internal/exec .

# The paper-artifact benchmarks (figures/tables) plus the operator and
# scheduler microbenchmarks. GIGNITE_PARBENCH_SF overrides the
# BenchmarkParallelExecute scale factor.
bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# The fault-tolerance suite (chaos_test.go): seeded fault plans, replica
# failover, cancellation and goroutine-leak checks, twice under -race to
# shake out scheduling-dependent behaviour.
chaos:
	$(GO) test -race -count=2 -run 'TestChaos' .

# The resource-governance smoke check (DESIGN.md §14): admission sheds
# with ErrOverloaded only, queued queries drain with identical rows, and
# hedged straggler attempts cut the modeled makespan. Exits non-zero on
# any violation.
overload:
	$(GO) run ./cmd/benchrunner -exp overload -sf 0.005 -sites 4 -metrics overload-metrics.json

# The plan-cache smoke check (DESIGN.md §15): hot runs must skip planning
# (mean hot plan time ≤ 10% of cold) with rows byte-identical cache
# on/off. Exits non-zero on any violation.
plancache:
	$(GO) run ./cmd/benchrunner -exp plancache -sf 0.02 -sites 4 -metrics plancache-metrics.json

# The adaptive-execution smoke check (DESIGN.md §17): under 10x
# misestimated statistics the adaptive run must stay within 115% of the
# correctly-estimated static plan's modeled time on Q5/Q9-shaped joins,
# stay byte-identical to the misestimated static plan across
# parallelism and fault plans, and fire at least one rewrite. Exits
# non-zero on any violation.
adaptive:
	$(GO) run ./cmd/benchrunner -exp adaptive -sf 0.01 -sites 4 -metrics adaptive-metrics.json

# The benchmark-regression gate: measure the committed BENCH_gate.json
# query set and fail on >tolerance modeled-time or shipped-bytes
# regressions. The measured signals are deterministic simnet values, so
# the gate is host-independent.
benchgate:
	$(GO) run ./cmd/benchrunner -exp benchgate -metrics benchgate-metrics.json

# Refresh the committed baseline after an intentional performance change;
# commit the resulting BENCH_gate.json diff.
benchgate-update:
	$(GO) run ./cmd/benchrunner -exp benchgate -update-baseline

# The serving-layer smoke check (DESIGN.md §16): concurrent database/sql
# clients over TCP must get byte-identical rows to in-process execution
# (plan cache on and off), prepared statements must skip planning
# (observed via /metrics), overload must surface as a typed wire error, a
# mid-stream client kill must free its governor lease, a graceful drain
# must finish the in-flight query, and nothing may leak. Exits non-zero
# on any violation.
serve:
	$(GO) run ./cmd/benchrunner -exp serve -sf 0.005 -sites 4 -metrics serve-metrics.json

# Run every fuzz target briefly, seeded from testdata/fuzz. `go test
# -fuzz` accepts one target per invocation, hence the loop.
FUZZTIME ?= 30s
fuzz-smoke:
	@for t in $$($(GO) test -list 'Fuzz.*' . | grep '^Fuzz'); do \
		echo "fuzzing $$t for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) . || exit 1; \
	done

ci: vet race race-cpu bench-build bench-exec

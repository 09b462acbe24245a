GO ?= go
DATE := $(shell date +%F)
# bench output path; override to avoid clobbering an existing snapshot taken
# the same day (e.g. make bench OUT=BENCH_$(DATE)-pr2.json).
OUT ?= BENCH_$(DATE).json

.PHONY: build test check detvet fuzz-smoke bench bench-headline bench-sweep bench-report verify serve sweep-e2e crash-e2e fleet-e2e metrics-e2e chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

verify: build test

# check is the tier-1 gate (see ROADMAP.md): formatting, vet, detvet,
# build, tests. detvet is the in-repo determinism/hash-neutrality linter
# (see DESIGN.md "Static analysis"); a finding fails the gate.
check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/detvet ./...
	$(GO) build ./...
	$(GO) test ./...

# detvet runs the determinism & hash-neutrality analyzers standalone
# (walltime, globalrand, maporder, journalerr, hashneutral, annotations).
detvet:
	$(GO) run ./cmd/detvet ./...

# fuzz-smoke runs the spec-canonicalization fuzzer briefly — long enough
# to replay the corpus and shake the mutator, short enough for CI.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSpecCanonicalization -fuzztime 30s ./internal/scenario

# serve runs the simulation service daemon (see examples/radiod/README.md
# for the API quickstart; ADDR overrides the listen address).
ADDR ?= :8080
serve:
	$(GO) run ./cmd/radiod -addr $(ADDR)

# bench runs the full benchmark suite at quick scale (one iteration count,
# memory stats) and records the run as a BENCH_<date>.json snapshot so the
# perf trajectory is tracked in-repo. The snapshot splits the setup path
# (BuildScenario benchmarks in internal/expr) from the run path.
# internal/gen's BenchmarkAssemble (grid vs retained all-pairs reference) is
# deliberately excluded: it exists for on-demand scaling comparisons and
# would add an O(n²) reference sweep to every snapshot run.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -count=1 . ./internal/sim ./internal/expr \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchtool -out $(OUT)

# bench-sweep snapshots the sweep/durability layer: sweep expansion and
# the persistent store round trip (see BENCH_<date>-sweep.json).
bench-sweep:
	$(GO) test -run '^$$' -bench='BenchmarkSweepExpand|BenchmarkStoreRoundTrip' -benchmem -count=1 \
		./internal/scenario ./internal/store \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchtool -out BENCH_$(DATE)-sweep.json

# bench-report snapshots the streaming-reduction and report layer: the
# trial reducer, the quantile-sketch accumulator, and the sweep pivot
# (see BENCH_<date>-report.json).
bench-report:
	$(GO) test -run '^$$' -bench='BenchmarkReducer|BenchmarkAccumulator|BenchmarkBuildReport' -benchmem -count=1 \
		./internal/scenario ./internal/stats ./internal/report \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchtool -out BENCH_$(DATE)-report.json

# sweep-e2e runs the daemon restart / durability check CI runs (boots a
# real radiod against a temp -data dir; see scripts/sweep_e2e.sh).
sweep-e2e:
	sh scripts/sweep_e2e.sh

# crash-e2e kills a real radiod with SIGKILL mid-sweep, restarts it on the
# same -data dir, and asserts the journal-resumed sweep's CSV report is
# byte-identical to an uninterrupted run's (see scripts/crash_e2e.sh).
crash-e2e:
	sh scripts/crash_e2e.sh

# fleet-e2e runs a coordinator plus two worker processes, kills one with
# SIGKILL while it holds a lease, and asserts the re-dispatched sweep's
# CSV report is byte-identical to a single-node run's (see
# scripts/fleet_e2e.sh).
fleet-e2e:
	sh scripts/fleet_e2e.sh

# metrics-e2e boots a real radiod, runs the mis-quick preset twice (miss
# then cache hit) and a 2x2 sweep, lints the /metrics exposition with
# cmd/promlint, and asserts cache counters, latency-histogram sums, phase
# monotonicity, and the per-sweep stats rollup (see scripts/metrics_e2e.sh).
metrics-e2e:
	sh scripts/metrics_e2e.sh

# chaos reruns the crash e2e under the stock chaos fault spec: injected
# transient trial errors and panics (plus delays) that retry and panic
# isolation must absorb without changing the final report.
chaos:
	FAULT_SPEC=scripts/chaos_fault.json sh scripts/crash_e2e.sh

# bench-headline runs only the acceptance benchmarks (E1/E3/E8 + setup).
bench-headline:
	$(GO) test -run '^$$' -bench='BenchmarkE1MISScaling|BenchmarkE3CCDSRounds|BenchmarkE8AsyncMIS' \
		-benchmem -count=1 .
	$(GO) test -run '^$$' -bench='BenchmarkBuildScenario' -benchmem -count=1 ./internal/expr

# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Stamp the binary with the git revision so `equitruss version` and the
# /healthz "revision" field identify the build even when the module was
# compiled outside a checkout (where debug.ReadBuildInfo has no vcs info).
REV ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
LDFLAGS := -X equitruss/internal/buildinfo.revision=$(REV)

.PHONY: all build test race bench benchcheck repro examples ci serversmoke servermetrics chaos crashsafe coldstart lifecycle clean

all: build test

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The gate every change must pass: vet, vulnerability scan (when the
# scanner is installed), build, full tests, the race-detector subset
# covering the shared-state hot spots (schedulers, the triangle and peel
# kernels, the community index, observability) at one worker thread and at
# more workers than the box has cores, the chaos suite, and the nested
# lifecycle-benchmark module.
ci: serversmoke servermetrics chaos crashsafe coldstart lifecycle
	$(GO) vet ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed — skipping vulnerability scan"; \
		echo "  (go install golang.org/x/vuln/cmd/govulncheck@latest to enable)"; \
	fi
	$(GO) build -ldflags '$(LDFLAGS)' ./...
	$(GO) test ./...
	$(GO) test -race -cpu 1,4 ./internal/concur ./internal/triangle ./internal/truss ./internal/community ./internal/obs
	$(MAKE) benchcheck

# The paper's evaluation as a gate: run the experiments the benchcheck
# predicates read and check, inside that one run, the orderings the paper
# claims — Baseline > C-Optimal > Afforest in single-thread SpNode time
# (Fig. 5) and C-Optimal and Afforest SpNode faster at the top of the
# thread sweep (Fig. 7), both read from the fig8 rows; SpNode the largest
# Baseline kernel (Fig. 4); EquiTruss at least as costly as TrussDecomp
# (Fig. 2); the auto Support and peel kernels within 15% of the fastest
# explicit kernel; and the query hierarchy far ahead of BFS. No baseline
# file is read; each predicate prints its margin and any failure exits 1.
# Cells under a 20 ms floor are not checked, but a predicate left with no
# cell fails. The run's BENCH_*.json artifact and TSVs land in bench/
# (gitignored). Cold start and the live-update applier are measured by the
# lifecycle benchmark.
benchcheck:
	$(GO) run ./cmd/benchsuite -experiment fig2,fig4,fig8,support,peel,query -scale 0.05 -out bench/

# Race-enabled server smoke: 64 concurrent clients hammer one handler
# (httptest) mixing cached singles and pooled batches, answers checked
# against a precomputed oracle.
serversmoke:
	$(GO) test -race -run 'TestServerSmokeConcurrent|TestGracefulShutdownDrainsInflight' ./internal/server

# Race-enabled observability proof: concurrent mixed load against one
# handler with 1-in-1 sampling, then asserts /metrics exposes the latency
# histograms + runtime/instance gauges, /debug/requests retains stage
# traces, and the JSON log joins on request_id.
servermetrics:
	$(GO) test -race -run 'TestServerMetricsUnderLoad|TestErroredRequestRetainedAndLogged|TestHealthzRevision' ./internal/server

# Fault-injection and robustness proofs, all race-enabled: mid-build
# cancellation with goroutine-leak assertions, corrupt-index rejection,
# crash-safe saves, and the server surviving injected errors/panics/delays.
# See docs/ROBUSTNESS.md for the fault-site registry.
chaos:
	$(GO) test -race -run 'TestChaos' .
	$(GO) test -race ./internal/faults ./internal/server ./internal/graphio

# Crash-recovery drill, race-enabled: builds the real binary, streams
# durable /update batches at a live server, SIGKILLs it mid-stream,
# restarts over the same state directory, and differential-verifies the
# recovered state (canonical checksums from /healthz) against an
# independent in-process rebuild of the acked update prefix. Also runs the
# in-process durability suite (recovery, compaction, WAL poisoning).
crashsafe:
	EQUITRUSS_CRASHSAFE=1 $(GO) test -race -run 'TestCrashSafeKillMidStream|TestLive' .
	$(GO) test -race ./internal/wal ./internal/dynamic

# Cold-start drill, race-enabled: builds the real binary, writes an index
# with `equitruss build -out`, serves it from a zero-copy mmap with lazy
# verification, SIGKILLs the server with the mapping live, restarts
# over the same file with eager verification, and differential-verifies both
# processes' serving checksums (from /healthz) against an independent
# in-process rebuild. Also runs the mmap/heap loader equivalence suite.
coldstart:
	EQUITRUSS_COLDSTART=1 $(GO) test -race -run 'TestColdstart' .
	$(GO) test -race ./internal/mmapio ./internal/graphio

# The lifecycle benchmark (BENCHMARK.json, benchmark/) is a nested module
# that `./...` skips: vet and test it, then smoke one workload end to end.
# It calls the kernels and the index/maintainer API by their exported
# signatures, so this is also the compile-time guard that a refactor left
# the instrument working.
lifecycle:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	bash benchmark/run.sh --workload churn-mixed --smoke --seconds 0.75

# One benchmark per paper table/figure plus ablations (bench_test.go).
bench:
	$(GO) test -bench=. -benchmem ./...

# Long-form reproduction of the paper's evaluation; writes plot-ready TSVs.
repro:
	$(GO) run ./cmd/benchsuite -experiment all -scale 0.25 -out results/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/socialnetwork
	$(GO) run ./examples/proteins
	$(GO) run ./examples/kernelbreakdown
	$(GO) run ./examples/dynamicupdates

clean:
	rm -rf results/

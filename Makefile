GO ?= go

.PHONY: check vet fmt lint lint-json lint-sarif test test-race test-obs bench-obs bench-matrix bench-matrix-update build sim sim-sweep

check: vet fmt lint test-race bench-obs sim

build:
	$(GO) build ./...

# vet output is captured and sorted so diagnostics are machine-stable
# across runs (package walk order is not guaranteed).
vet:
	@out=$$($(GO) vet ./... 2>&1); st=$$?; \
	if [ -n "$$out" ]; then echo "$$out" | sort; fi; \
	exit $$st

# kslint: the repo's own analyzers (internal/lint) — determinism, locking,
# memory-lifetime, and goroutine-lifecycle invariants. Output is file:line
# sorted by the driver; analysis wall time prints on stderr and the 60s
# budget keeps a rule whose fixpoint regresses into pathology from slowly
# eating the edit-lint loop (`kslint -timings` breaks the time down per
# rule when the budget trips).
lint:
	$(GO) run ./cmd/kslint -root . -maxwall 60s

# lint-json writes the machine-readable findings artifact CI uploads per
# PR (an empty array when clean). Never fails the build: the human-
# readable `lint` target is the gate, this is the record.
lint-json:
	@mkdir -p lint-artifacts
	-$(GO) run ./cmd/kslint -root . -json > lint-artifacts/kslint.json
	@echo "wrote lint-artifacts/kslint.json"

# lint-sarif writes the SARIF 2.1.0 log CI uploads to GitHub code
# scanning. Same never-fails contract as lint-json: the artifact is the
# record of what fired, the `lint` target is the gate.
lint-sarif:
	@mkdir -p lint-artifacts
	-$(GO) run ./cmd/kslint -root . -sarif > lint-artifacts/kslint.sarif
	@echo "wrote lint-artifacts/kslint.sarif"

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race -short ./...

test-obs:
	$(GO) test -race -count=1 ./internal/obs/

# bench-obs proves the disabled/idle registry stays out of the hot path:
# the benchmarks print per-op costs and the guard tests enforce the
# bounds (counter ops, the disabled flight recorder, and the per-record
# watermark tracker).
bench-obs:
	$(GO) test ./internal/obs/ -bench Obs -benchtime 100x -run 'TestCounterOpOverheadGuard|TestFlightRecorderDisabledOverheadGuard' -count=1
	$(GO) test ./internal/core/ -run TestWatermarkOpOverheadGuard -count=1

# bench-matrix: the produce/fetch macro-bench matrix (DESIGN.md §10)
# plus the recovery MTTR pair (DESIGN.md §13). Writes fresh BENCH_*.json
# into bench-artifacts/ and fails on a >10% records/sec regression — or a
# >10% MTTR regression past the 50ms noise floor (mttrNoiseFloorMs in
# internal/experiments/recovery.go) — against the files committed at the
# repo root. The matrix runs -quick (its baselines are
# quick-profile); the recovery pair runs the full profile because MTTR
# only separates from scheduler jitter with real state to restore, and
# the committed recovery baselines are full-profile. The out and
# baseline dirs must differ: writing into the baseline dir first would
# make the comparison read the fresh numbers back.
bench-matrix:
	$(GO) run ./cmd/ksbench -matrix -quick -out bench-artifacts -against .
	$(GO) run ./cmd/ksbench -recovery -out bench-artifacts -against .

# bench-matrix-update regenerates the committed baseline trajectory.
bench-matrix-update:
	$(GO) run ./cmd/ksbench -matrix -quick -out .
	$(GO) run ./cmd/ksbench -recovery -out .

# sim: the deterministic fault-schedule simulator (DESIGN.md §9) over a
# fixed seed sweep. A failing seed prints its minimal reproducer and the
# replay command. -leakcheck cross-validates the static goroutine-
# lifecycle rules (kslint goleak/chanown, DESIGN.md §12) against the
# dynamic guard: after the sweep's crash/partition/failover churn, every
# simulation goroutine must have exited.
sim:
	$(GO) run ./cmd/kssim -seeds 50 -short -leakcheck

# sim-sweep: the full 50-seed TestSim sweep, run serially. The sweep's
# settle detection is wall-time sensitive; starving it of CPU — whether by
# running 50 simulations in parallel with the rest of the test suite or by
# capping GOMAXPROCS — flakes it (EXPERIMENTS.md documents the reproducer),
# so the sweep gets its own serial invocation: no t.Parallel, -p 1, and
# GOMAXPROCS deliberately left alone. The pattern is anchored: a bare
# TestSim would also match TestSimRebalanceChurn's 100 parallel seeds.
sim-sweep:
	KSTREAMS_SIM_SWEEP=1 $(GO) test -p 1 -run '^TestSim$$' -count=1 ./internal/sim/

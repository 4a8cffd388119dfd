GO ?= go
# GATE_THRESHOLD is the fractional points/sec regression make benchgate
# tolerates before failing (0.15 = 15%). CI overrides it upward to ride
# out shared-runner noise.
GATE_THRESHOLD ?= 0.15
# FUZZTIME is how long make fuzz runs each fuzz target.
FUZZTIME ?= 10s

# RACESTRESS_RUN selects the server's cancellation, coalescing and
# shutdown tests that make racestress repeats.
RACESTRESS_RUN = Cancel|Coalesce|Shutdown|Disconnect|FollowerLeaving

.PHONY: check lint vet build test race racestress fuzz bench benchgate benchsmoke scalebench e2esmoke e2ebench

## check: the tier-1 gate — vet + cntlint, build, plain tests (the
## zero-alloc kernel guards only assert outside -race), race-enabled
## tests, the server's timing-sensitive tests repeated under -race, a
## build-only smoke of the sweep benchmark (tiny grid, no timing
## assertion: timing under a loaded CI machine is noise) and the
## end-to-end benchmark module's race-enabled tests. The sweep service
## and the two-replica fleet are checked end to end by the
## internal/server and internal/cluster tests, under -race too.
check: lint build test race racestress benchsmoke e2esmoke

## lint: go vet plus the project analyzer suite (cmd/cntlint):
## telemetry key registry, context propagation, float comparisons,
## atomic field discipline, unit documentation, error-wrap chains,
## zero-alloc annotations, sink/goroutine contracts and the error
## taxonomy <-> HTTP status map. Suppress a finding with
## //lint:allow <analyzer> <reason> on or above the line; cntlint
## -fix applies suggested fixes, -json/-github change the output.
lint: vet
	$(GO) run ./cmd/cntlint ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## racestress: the server's cancellation, coalescing and shutdown tests
## (RACESTRESS_RUN) under -race, ten times over, so a timing-dependent
## regression fails the gate instead of passing on a rerun.
racestress:
	$(GO) test -race -count=10 -run '$(RACESTRESS_RUN)' ./internal/server

## fuzz: every Fuzz* target in the module, run past its seed corpus for
## FUZZTIME each (make test replays only the seeds). A failing input is
## written under the package's testdata/fuzz, where go test replays it.
fuzz:
	@set -e; for pkg in $$($(GO) list -f '{{if .TestGoFiles}}{{.ImportPath}}{{end}}' ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz: $$pkg $$target for $(FUZZTIME)"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

## bench: telemetry overhead + solver benchmarks, a cold fitted-model
## build (core.Fit on a fresh key, with its theory samples as
## integral_evals/op) and the same miss through the server's model
## cache (B/op and allocs/op: a cold request's model cost), the two
## theory samplers (240 fit samples, and a cold charge table at 150,
## 300 and 450 K), one
## reference eq.-7 solve per path (quadrature, table, warm start; with
## newton_iters/op and integral_evals/op), the
## served Table-I answer's encode cost (whole response, and per float:
## strconv against internal/jsonenc), the nine reference cells' cold
## set-up (charge tables built per warm-up), one served Table-I job
## through engine.Run (B/op and allocs/op: the sweep path's heap cost
## per request), then the before/after sweep-engine comparison.
## Writes BENCH_sweep.json at the repo root and fails if the batched
## engine is slower than the legacy scheduler.
bench:
	$(GO) test -bench='IDSTelemetry|FitColdModel' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench='ResolveColdModel' -benchmem ./internal/server/
	$(GO) test -run '^$$' -bench='SampleNS|ChargeTableBuild' -benchmem ./internal/fettoy/
	$(GO) test -run '^$$' -bench='SolveVSC_' -benchmem .
	$(GO) test -run '^$$' -bench='EncodeFamilyResponse|AppendFloat|ReferenceWarmup' -benchmem ./internal/server/
	$(GO) test -run '^$$' -bench='EngineRunTableI' -benchmem ./internal/engine/
	$(GO) run ./cmd/cntbench -sweepbench -assert-faster -out BENCH_sweep.json

## benchgate: the perf-regression gate — re-runs the sweep benchmark
## (with an untimed warm-up pass baked into the tool) and compares
## points/sec of the batched and closed-form serving paths against the
## checked-in BENCH_sweep.json baseline, failing when either regresses
## more than GATE_THRESHOLD. The fresh run lands in BENCH_gate.json
## (gitignored). Refresh the baseline by running make bench on the
## machine that owns it.
benchgate:
	$(GO) run ./cmd/cntbench -sweepbench -gate BENCH_sweep.json -gate-threshold $(GATE_THRESHOLD) -out BENCH_gate.json

## scalebench: the 1->N worker scaling curve for both model families
## (points/sec, efficiency, counter deltas per worker count). Writes
## BENCH_scale.json at the repo root.
scalebench:
	$(GO) run ./cmd/cntbench -scalebench -out BENCH_scale.json

benchsmoke:
	$(GO) run ./cmd/cntbench -sweepbench -points 9 -repeats 1 -out /dev/null

## e2esmoke: the tests of the end-to-end benchmark, a Go module of its
## own under bench/ that the root ./... does not reach. They run all
## four workloads in -short form under -race and compare every sampled
## served answer bit for bit against the oracle — the end-to-end check
## of the hand-rolled response encoder. No timing is asserted.
e2esmoke:
	cd bench && $(GO) test -race ./...

## e2ebench: the end-to-end serving benchmark, all four workloads
## (about 3.5 min). Pass flags through E2EFLAGS, e.g.
## make e2ebench E2EFLAGS="-workload iv-point -seconds 15 -trace 0".
e2ebench:
	bash bench/run.sh $(E2EFLAGS)

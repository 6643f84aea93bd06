GO ?= go

# Benchmarks covered by `make bench` — the scheduling spine, the event
# queue under timer pressure, whole-run throughput, config build, the
# packet algorithms, and trace recording per event row. Output is
# benchstat-compatible (`benchstat old.txt new.txt`).
BENCH ?= BenchmarkSchedule|BenchmarkLeafSchedulers|BenchmarkMachineSimulation|BenchmarkEventStorm|BenchmarkSimThroughput|BenchmarkBuild|BenchmarkPacketAlgorithms|BenchmarkTraceRecord
BENCH_COUNT ?= 5
BENCH_TIME ?= 200ms

# Fuzz-smoke budget per target. Minimization is capped at one attempt so
# the whole budget is spent fuzzing, not shrinking interesting inputs.
FUZZ_TIME ?= 30s

.PHONY: all build test race vet bench bench-once bench-test fmt check fuzz-smoke e2e

all: build test

check: build fmt vet test race bench-test bench-once fuzz-smoke e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Includes the sweep engine's determinism-under-concurrency tests.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags e2e ./e2e

# Fails when gofmt would rewrite any Go file in the tree, bench/
# included, and lists those files; a file that does not parse fails too.
fmt:
	@files=$$(gofmt -l .) || exit 1; test -z "$$files" || { echo "gofmt would rewrite:"; echo "$$files"; exit 1; }

bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) .

# Every `make bench` rung once, so a rung that fails at run time fails the
# check, not the next measurement.
bench-once:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 1x -count 1 .

# bench/ is its own module, so the root build and test never compile it,
# yet it drives sched, core and tenantsched directly: vet and test it here.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short coverage-guided runs of each fuzz target on top of the checked-in
# corpora: config intake must never panic, content addresses must survive
# the wire round trip and vary with the seed, the event engine must keep
# its (At, Seq) firing contract under any op script, no byte stream may
# panic the trace-frame decoder or make it allocate unboundedly, the
# in-place event frame encoder must match its two-step reference and
# decode back on any event, the canonical row encoder must match its
# reference format on any event, and
# a hierarchy over every leaf kind must keep its invariants, and resume
# exactly from a checkpoint, under any script of structure operations.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseConfig -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/simconfig
	$(GO) test -run '^$$' -fuzz FuzzJobKey -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/sweep
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzEngineOrder -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzTraceFrameDecode -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/tracestream
	$(GO) test -run '^$$' -fuzz FuzzAppendEventFrame -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/tracestream
	$(GO) test -run '^$$' -fuzz FuzzAppendRow -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzStructureOps -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/core

# The CLIs as real processes: SIGKILL and resume, SIGTERM drain with a
# trace stream open, saturated multi-tenant daemons, a mesh backend
# killed mid-sweep, and every CLI run twice for identical output.
# TestMain builds the CLIs from this tree.
e2e:
	$(GO) test -tags e2e -count=1 ./e2e

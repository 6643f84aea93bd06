GO ?= go

# Benchmarks covered by `make bench` — the scheduling spine, the event
# queue under timer pressure, whole-run throughput, and the packet
# algorithms. Output is benchstat-compatible (`benchstat old.txt new.txt`).
BENCH ?= BenchmarkSchedule|BenchmarkLeafSchedulers|BenchmarkMachineSimulation|BenchmarkEventStorm|BenchmarkSimThroughput|BenchmarkPacketAlgorithms
BENCH_COUNT ?= 5
BENCH_TIME ?= 200ms

# Load test shape: LOADTEST_N requests from LOADTEST_C goroutines against
# a daemon with queue depth LOADTEST_QUEUE — concurrency 4x the queue so
# shedding (429) actually happens and the retry path is exercised.
LOADTEST_N ?= 64
LOADTEST_C ?= 64
LOADTEST_QUEUE ?= 16
LOADTEST_WORKERS ?= 4

# Tenant smoke shape: the weighted leg splits TENANT_SMOKE_C client
# goroutines across the tenants for TENANT_SMOKE_DURATION per phase
# against TENANT_SMOKE_WORKERS daemon workers — few enough workers that
# the pool saturates and the SFQ tree decides dispatch order.
TENANT_SMOKE_C ?= 32
TENANT_SMOKE_WORKERS ?= 2
TENANT_SMOKE_DURATION ?= 3s

# Fuzz-smoke budget per target. Minimization is capped at one attempt so
# the whole budget is spent fuzzing, not shrinking interesting inputs.
FUZZ_TIME ?= 30s

.PHONY: all build test race vet bench bench-test fmt check sweep-smoke loadtest tenant-smoke fuzz-smoke mesh-smoke checkpoint-smoke smp-smoke adversary-smoke trace-smoke

all: build test

check: build fmt test vet bench-test sweep-smoke tenant-smoke fuzz-smoke mesh-smoke checkpoint-smoke smp-smoke adversary-smoke trace-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Includes the sweep engine's determinism-under-concurrency tests.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails when gofmt would rewrite any Go file in the tree, bench/
# included, and lists those files; a file that does not parse fails too.
fmt:
	@files=$$(gofmt -l .) || exit 1; test -z "$$files" || { echo "gofmt would rewrite:"; echo "$$files"; exit 1; }

bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) .

# bench/ is its own module, so the root build and test never compile it,
# yet it drives sched, core and tenantsched directly: vet and test it here.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# 16-job grid (2 quanta x 2 leaf kinds x 2 weights x 2 seeds), every job
# run twice (-verify) across 4 workers: exercises the sweep engine's
# determinism guarantee end to end on a real scenario.
sweep-smoke:
	$(GO) run ./cmd/hsfqsweep -spec examples/sweeps/smoke.json -workers 4 -verify -o "" -metrics share:dec,frames:dec

# Build hsfqd and fire concurrent mixed hit/miss traffic at it: zero 5xx,
# 429 only as shedding, byte-identical cached bodies, clean SIGTERM drain.
loadtest:
	$(GO) build -o /tmp/hsfqd ./cmd/hsfqd
	$(GO) run ./cmd/hsfqload -hsfqd /tmp/hsfqd -n $(LOADTEST_N) -c $(LOADTEST_C) \
		-queue $(LOADTEST_QUEUE) -workers $(LOADTEST_WORKERS)

# Multi-tenant serving end to end over real processes, three legs against
# a policy-carrying daemon:
#   1. classic header-less traffic must behave exactly as before the
#      tenant scheduler existed (byte-identical bodies, legacy /metrics
#      schema intact, clean drain);
#   2. gold:4 vs bronze:1 under saturation must complete requests in
#      proportion to weight within the fairness tolerance, with a shared
#      scenario byte-identical across tenants;
#   3. a one-tenant flood must leave the victim tenant's p99 within the
#      configured bound of its p99 alone.
# hsfqload exits non-zero on any violated invariant.
tenant-smoke:
	$(GO) build -o /tmp/hsfqd ./cmd/hsfqd
	$(GO) run ./cmd/hsfqload -hsfqd /tmp/hsfqd -policy examples/policies/tenants.json \
		-n $(LOADTEST_N) -c $(LOADTEST_C) -queue $(LOADTEST_QUEUE) -workers $(LOADTEST_WORKERS)
	$(GO) run ./cmd/hsfqload -hsfqd /tmp/hsfqd -policy examples/policies/tenants.json \
		-tenants gold:4,bronze:1 -duration $(TENANT_SMOKE_DURATION) -c $(TENANT_SMOKE_C) \
		-queue 64 -workers $(TENANT_SMOKE_WORKERS)
	$(GO) run ./cmd/hsfqload -hsfqd /tmp/hsfqd -policy examples/policies/tenants.json \
		-tenants victim:1,flood:1 -flood flood -duration 2s \
		-queue 64 -workers $(TENANT_SMOKE_WORKERS)

# Short coverage-guided runs of each fuzz target on top of the checked-in
# corpora: config intake must never panic, content addresses must survive
# the wire round trip and vary with the seed, the event engine must keep
# its (At, Seq) firing contract under any op script, no byte stream may
# panic the trace-frame decoder or make it allocate unboundedly, and the
# canonical row encoder must match its reference format on any event.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseConfig -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/simconfig
	$(GO) test -run '^$$' -fuzz FuzzJobKey -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/sweep
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzEngineOrder -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzTraceFrameDecode -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/tracestream
	$(GO) test -run '^$$' -fuzz FuzzAppendRow -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1x ./internal/trace

# Distributed dispatch end to end over real processes: a 64-job sweep
# across two hsfqd daemons (one SIGKILLed mid-sweep, hedging on) must be
# byte-identical to a serial hsfqsweep run, and a digest-tampering backend
# must be quarantined with exit 3 while the output is repaired locally.
mesh-smoke:
	$(GO) build -o /tmp/hsfqd ./cmd/hsfqd
	$(GO) build -o /tmp/hsfqmesh ./cmd/hsfqmesh
	$(GO) build -o /tmp/hsfqsweep ./cmd/hsfqsweep
	$(GO) run ./cmd/meshsmoke -hsfqd /tmp/hsfqd -hsfqmesh /tmp/hsfqmesh \
		-hsfqsweep /tmp/hsfqsweep -spec examples/sweeps/mesh.json

# Checkpoint/restore end to end over real processes: an hsfqsim run
# SIGKILLed mid-simulation must resume to a byte-identical trace, a
# horizon-axis sweep with a checkpoint store must emit byte-identical
# JSONL while resuming jobs, and hsfqdiff must pinpoint a deliberately
# planted divergence (exit 3) and clear identical configs (exit 0).
checkpoint-smoke:
	$(GO) build -o /tmp/hsfqsim ./cmd/hsfqsim
	$(GO) build -o /tmp/hsfqsweep ./cmd/hsfqsweep
	$(GO) build -o /tmp/hsfqdiff ./cmd/hsfqdiff
	$(GO) run ./cmd/ckptsmoke -hsfqsim /tmp/hsfqsim -hsfqsweep /tmp/hsfqsweep \
		-hsfqdiff /tmp/hsfqdiff -spec examples/sweeps/ckpt.json

# Multicore machine end to end over real processes: hsfqsim -cores 1 must
# be byte-identical to a coreless run while -cores 2 grows core-tagged
# output (and svr4 under -policy steal is rejected up front), and a
# verified cores x policy x migration-cost sweep must show one digest per
# seed on the cores:1 plane, steal migrations off a packed core, and
# throughput that scales with cores and drops under migration cost.
smp-smoke:
	$(GO) build -o /tmp/hsfqsim ./cmd/hsfqsim
	$(GO) build -o /tmp/hsfqsweep ./cmd/hsfqsweep
	$(GO) run ./cmd/smpsmoke -hsfqsim /tmp/hsfqsim -hsfqsweep /tmp/hsfqsweep \
		-spec examples/sweeps/smp.json

# Adversarial suite: every registered attacker program against every leaf
# it applies to, at 1 and 4 cores. Policies that promise isolation must
# keep their victims above the Theorem-1-derived bound; policies that are
# gameable by design must demonstrably lose. The whole matrix runs twice
# and the outcome digests must match, so any failure reproduces from the
# cell's config alone and bisects under hsfqdiff.
adversary-smoke:
	$(GO) run ./cmd/advsmoke

# Trace streaming end to end over a real daemon, three legs:
#   1. replay soundness: a follow stream consumed live, the stored
#      recording's digest header, and the recording re-decoded through
#      the wire codec must all hash identically;
#   2. drop accounting: a throttled reader on a minimum buffer must be
#      told exactly what it lost (rows + dropped == total);
#   3. diff parity: POST /v1/diff must return the same verdict,
#      divergence_at_ns, and first divergent rows as batch
#      `hsfqdiff -json` on the same planted divergence.
# A second hsfqload run exercises K concurrent follow streams (one
# deliberately slow) plus a SIGTERM with a stream open: fast readers
# gap-free and digest-matched, slow reader drop-accounted, drain clean.
trace-smoke:
	$(GO) build -o /tmp/hsfqd ./cmd/hsfqd
	$(GO) build -o /tmp/hsfqdiff ./cmd/hsfqdiff
	$(GO) run ./cmd/tracesmoke -hsfqd /tmp/hsfqd -hsfqdiff /tmp/hsfqdiff
	$(GO) run ./cmd/hsfqload -hsfqd /tmp/hsfqd -trace 3 -queue 16 -workers 2

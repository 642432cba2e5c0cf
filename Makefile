# PERSEAS — build, test and experiment targets.

GO ?= go

.PHONY: all check build vet test test-short test-race test-soak-netram test-soak-bench test-soak-core bench-smoke bench bench-obs bench-fanout bench-quorum bench-shard bench-server bench-recovery experiments fuzz examples clean

all: build vet test

# The full pre-merge gate: build, vet, tests, the race detector, the
# three soaks CI runs, and the wall-clock benchmark at toy sizes.
check: build vet test test-race test-soak-netram test-soak-bench test-soak-core bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Concurrent transaction handles make the race detector a first-class
# gate, not an optional extra.
test-race:
	$(GO) test -race ./...

# The fan-out's definition of green: the whole netram suite, race
# detector on, fifty times over on two cores — the interleavings of ack
# order, mirror death, catch-up overflow and rebuild swap a fast host
# never schedules.
test-soak-netram:
	GOMAXPROCS=2 $(GO) test -race -count=50 ./internal/netram/

# The concurrent workloads, race detector on, fifty times over on two
# cores: a commit push that reads bytes its transaction does not hold
# (a neighbour mid-write in the same 64-byte line) shows up here as a
# data race, and only on some interleavings.
test-soak-bench:
	GOMAXPROCS=2 $(GO) test -race -count=50 ./internal/bench

# The commit path's crash points and the recovery that settles them,
# race detector on, twenty times over on two cores: recovery reads every
# mirror side by side and the commit batch joins on sender workers, so
# the enumeration has to hold on the interleavings too.
test-soak-core:
	GOMAXPROCS=2 $(GO) test -race -count=20 -timeout 30m -run 'CrashPoint|Recovery|Abort' ./internal/core

# The wall-clock benchmark end to end at toy sizes (1 s windows, every
# workload untraced then traced, correctness checks on): says that the
# benchmark still runs against this tree, nothing about speed.
bench-smoke:
	$(GO) run ./benchmark -smoke

# Skips the soak test and the `go run` example harness.
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Observability hot paths only: histogram Observe plus the trace and
# flight recorders' disabled/enabled costs. The disabled numbers must
# stay under 100ns — they ride on every commit.
bench-obs:
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/obs/ ./internal/trace/ ./internal/flight/

# Mirror fan-out microbenchmark: Push over 1/2/4 delayed mirrors,
# serial loop vs parallel fan-out, plus the loopback-TCP commit-path
# comparison. Writes machine-readable results to BENCH_fanout.json.
bench-fanout:
	$(GO) run ./cmd/perseas-bench -experiment fanout -bench-out BENCH_fanout.json
	$(GO) run ./cmd/perseas-bench -experiment commitpath -tcp -mirrors 2 -txs 300

bench-quorum:
	$(GO) run ./cmd/perseas-bench -experiment fanout -quorum 2 -txs 2000 -bench-out BENCH_quorum.json

# Shard scaling sweep: the same workload against 1, 2 and 4 complete
# PERSEAS instances behind the router, each mirror link modelled as a
# serialised fixed-latency pipe. Writes machine-readable results to
# BENCH_shard.json; 2 shards must clear 1.6x aggregate throughput.
bench-shard:
	$(GO) run ./cmd/perseas-bench -experiment shard -txs 2000 -bench-out BENCH_shard.json

# Crash-recovery and rebuild sweep: recovery wall-clock at 1/2/4
# workers and mirror rebuild at pipeline depth 1/2, each mirror link a
# serialised fixed-latency pipe. Writes machine-readable results to
# BENCH_recovery.json; 4 workers must clear 2x on recovery and depth 2
# must clear 1.5x on rebuild.
bench-recovery:
	$(GO) run ./cmd/perseas-bench -experiment recovery -bench-out BENCH_recovery.json

# Transaction front-door sweep: group commit vs serial commits as
# clients pile onto one tx server over loopback TCP. Writes
# machine-readable results to BENCH_server.json; group commit must beat
# serial on tx/s at the top of the client sweep.
bench-server:
	$(GO) run ./cmd/perseas-bench -experiment server -bench-out BENCH_server.json

# Regenerate every table and figure of the paper. The output is pinned:
# TestAllExperimentsMatchReference (cmd/perseas-bench, part of `make
# test`) compares it with experiments_output.txt byte for byte. A change
# that moves a modelled cost on purpose regenerates the reference with
# `go run ./cmd/perseas-bench -experiment all > experiments_output.txt`.
experiments:
	$(GO) run ./cmd/perseas-bench -experiment all

# Short fuzzing passes over every decoder.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeRequest -fuzztime 30s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzDecodeResponse -fuzztime 30s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzDecodeTxStats -fuzztime 30s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzDecodeRecord -fuzztime 30s ./internal/aries/
	$(GO) test -run xxx -fuzz FuzzDecodeCheckpoint -fuzztime 30s ./internal/aries/
	$(GO) test -run xxx -fuzz FuzzParseRecord -fuzztime 30s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzScanUndoLog -fuzztime 30s ./internal/core/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bank -accounts 200 -transfers 1000
	$(GO) run ./examples/orderentry
	$(GO) run ./examples/crashcourse
	$(GO) run ./examples/kvstore

clean:
	$(GO) clean ./...

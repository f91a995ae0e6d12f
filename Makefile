# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet bench bench-quick bench-engineered bench-klsm bench-subheap bench-skiplist bench-churn bench-net pqd-smoke durable check chaos repro verify profile examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite under the race detector (slow on small machines).
race:
	$(GO) test -race ./...

# CI gate: fail first if gofmt would change any tracked Go file (the
# tracked list, not ".", which would also descend into the untracked
# .bench_build/ and .smoke_build/ caches), then vet + build everything,
# then the race-sensitive packages (the
# engineered MultiQueue's buffer stealing, the k-LSM's pooled hot path with
# spy/run-buffer stealing, the packed-word skiplist substrate and its
# lock-free queues, the handle pool with its blocking wait and 0-alloc
# gate, the harness churn mode, the quality replay, the chaos checker, the
# socket server, and the telemetry shards' race-freedom test) and
# the root pool-churn test and rank-error matrix (every registry queue; no
# queue with a claimed bound may have a deletion whose definite rank
# exceeds it, DESIGN.md §6) under the race detector, plus a short-budget
# chaos pass over the whole registry (scalar, batch widths, and pooled
# handle lifecycles) from a race-built pqbench, pqbench smoke runs
# of the batch-width grid (widths 1 and 8), the goroutine-churn cells and
# the latency mode's CSV (widths 1 and 8), a pqload smoke, one pass of
# the sub-heap and sub-queue kernels (so they keep building),
# and the vet and tests of the separate benchmark module (bench/), which
# the root module's ./... does not reach.
#
# The smoke binaries (and the race-built pqbench the chaos passes run) are
# built once and each run is time-bounded: a livelocked queue gets SIGQUIT
# with GOTRACEBACK=all, so its step fails with a goroutine dump instead of
# blocking the gate.
SMOKE_BIN   = .smoke_build
SMOKE       = GOTRACEBACK=all timeout -s QUIT -k 10s 60s
SMOKE_CELL  = -threads 8 -duration 30ms -reps 1 -prefill 2000
SMOKE_GRID  = -queues globallock,multiq,multiq-s4-b8,klsm4096,linden $(SMOKE_CELL)
SMOKE_CHURN = -queues klsm4096,multiq $(SMOKE_CELL) -churn 400
SMOKE_OPS   = -queues multiq -threads 1,2 -ops 2000 -prefill 1000 -csv
check:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./internal/pq/ ./internal/core/ ./internal/multiq/ ./internal/skiplist/ ./internal/linden/ ./internal/spray/ ./internal/lotan/ ./internal/harness/ ./internal/quality/ ./internal/chaos/ ./internal/netpq/ ./internal/telemetry/
	$(GO) test -race -run 'TestPoolChurn|TestQualityMatrix' .
	$(MAKE) durable
	$(GO) build -o $(SMOKE_BIN)/ ./cmd/pqbench ./cmd/pqload
	$(GO) build -race -o $(SMOKE_BIN)/race/ ./cmd/pqbench
	$(SMOKE) $(SMOKE_BIN)/race/pqbench chaos -ops 1500
	$(SMOKE) $(SMOKE_BIN)/race/pqbench chaos -ops 1500 -batch 8
	$(SMOKE) $(SMOKE_BIN)/race/pqbench chaos -ops 1500 -pool
	$(SMOKE) $(SMOKE_BIN)/pqbench $(SMOKE_GRID) > /dev/null
	$(SMOKE) $(SMOKE_BIN)/pqbench $(SMOKE_GRID) -batch 8 > /dev/null
	$(SMOKE) $(SMOKE_BIN)/pqbench $(SMOKE_CHURN) > /dev/null
	$(SMOKE) $(SMOKE_BIN)/pqbench $(SMOKE_OPS) > /dev/null
	$(SMOKE) $(SMOKE_BIN)/pqbench $(SMOKE_OPS) -batch 8 > /dev/null
	$(SMOKE) $(SMOKE_BIN)/pqload -smoke > /dev/null
	$(GO) test -run '^$$' -bench '^BenchmarkSub(Heap|queue|queueSplit)$$' -benchtime 1x ./internal/seqheap/ ./internal/multiq/
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Fault-injection stress pass: every registry queue under seeded schedule
# perturbations and forced CAS/try-lock failures, with item-conservation,
# emptiness-oracle, Flusher-contract and relaxation-bound checking (see
# DESIGN.md §6). A failure prints a replay line; rerun it verbatim to
# reproduce the same injected decision sequence.
#   make chaos                # default budget (batch width 8, see CHAOS_BATCH)
#   make chaos CHAOS_OPS=50000 CHAOS_THREADS=8 CHAOS_BATCH=1
# CHAOS_BATCH > 1 interleaves batch (InsertN/DeleteMinN) and scalar calls
# on every worker, stressing the batch hot paths of DESIGN.md §4c.
CHAOS_OPS     ?= 10000
CHAOS_THREADS ?= 4
CHAOS_BATCH   ?= 8
chaos:
	$(GO) run -race ./cmd/pqbench chaos -ops $(CHAOS_OPS) -threads $(CHAOS_THREADS) -batch $(CHAOS_BATCH)

# The engineered-MultiQueue acceptance bench (seed multiq vs. multiq-s4-b8
# vs. klsm4096 at 8 threads); benchstat-comparable output.
bench-engineered:
	$(GO) test -bench=MultiQueueEngineered -benchmem -benchtime=1s -count=3 .

# The k-LSM acceptance benches: the fig-4a uniform-workload cell at 8 threads
# for klsm128/256/4096 plus the single-threaded insert+delete-min allocation
# microbench; benchstat-comparable output, allocs/op via -benchmem.
bench-klsm:
	$(GO) test -bench='^BenchmarkKLSM' -benchmem -benchtime=1s -count=3 .

# The MultiQueue sub-heap kernels at the sub-queue shapes of bench/'s
# fig4a and split-asc workloads: the binary and 4-ary heaps alone, the
# two-tier sub-queue (a hot 4-ary heap over a cold radix heap) past the
# uniform shape's hold-model drift, and split-asc's two-goroutine shape
# through the queue (one handle pushing rising batches while another
# pops); benchstat-comparable output.
bench-subheap:
	$(GO) test -run '^$$' -bench='^BenchmarkSubHeap$$' -benchtime=200000x -count=3 ./internal/seqheap/
	$(GO) test -run '^$$' -bench='^BenchmarkSubqueue(Split)?$$' -benchtime=200000x -count=3 ./internal/multiq/

# The skiplist-substrate acceptance benches: the fig-4a uniform-workload
# cell at 8 threads for linden/spray/lotan plus the single-threaded linden
# insert+delete-min allocation microbench; benchstat-comparable output,
# allocs/op via -benchmem.
bench-skiplist:
	$(GO) test -bench='^BenchmarkSkiplistPQ$$|^BenchmarkLindenInsertDeleteMin$$' -benchmem -benchtime=1s -count=3 .

# The socket-path table: pqload self-hosts an in-process pqd on a loopback
# socket and measures the fig-4a cell through it (8 connections, batch 8,
# 32 requests pipelined per connection), printing MOps/s ±CI95, allocs/op
# and request RTT per queue. Point it at a running server with
# ADDR=host:port.
ADDR ?=
bench-net:
	$(GO) run ./cmd/pqload $(if $(ADDR),-addr $(ADDR))

# End-to-end socket smoke (used by `make check`): self-hosted server on an
# ephemeral port, a short pqload burst, clean shutdown, nonzero ops gate.
pqd-smoke:
	$(GO) run ./cmd/pqload -smoke > /dev/null

# Durability gate (used by `make check`): the WAL/snapshot/recovery suite
# under the race detector, including the chaos checker over durable-
# wrapped queues with the wal-fsync failpoint, the crash-capture tests at
# the fsync boundary and at every concurrent-snapshot phase boundary,
# the producer-stall test, and the end-to-end kill/recover/conserve test
# that SIGKILLs a durable pqd child mid-traffic and proves the restart
# conserves every acknowledged item (DESIGN.md §8). The recovery benchmark
# and the disk store's append-and-sync kernel run once, without the race
# detector, so they keep building.
durable:
	$(GO) test -race -count=1 ./internal/durable/...
	$(GO) test -race -count=1 -run TestKillRecoverConserve ./cmd/pqd/
	$(GO) test -count=1 -run '^$$' -bench 'Recover|AppendSync' -benchtime 1x ./internal/durable/ ./internal/durable/kv/

# The goroutine-churn bench alone: the pooled handle lifecycle on the
# churn queues, as a readable table.
bench-churn:
	$(GO) run ./cmd/pqbench -churn 100000 -threads 8 \
		-queues klsm4096,multiq -prefill 100000 -reps 3

# Every testing.B bench (ablations, acceptance cells, kernels, allocation
# and churn benches), fixed op count for speed.
bench-quick:
	$(GO) test -bench=. -benchmem -benchtime=50000x ./...

# The same benches with time-based sampling (slower, steadier numbers).
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the full experiment grid into report.md.
repro:
	$(GO) run ./cmd/pqbench -figure all -table all -out report.md

# Check claimed relaxation bounds against observed rank errors.
verify:
	$(GO) run ./cmd/pqbench verify

# Profile one queue on the fig-4a cell: CPU + heap profiles and queue
# telemetry under ./profiles/. Inspect with `go tool pprof`.
#   make profile QUEUE=klsm4096 THREADS=8 DURATION=2s
QUEUE    ?= klsm4096
THREADS  ?= 8
DURATION ?= 2s
profile:
	mkdir -p profiles
	$(GO) run ./cmd/pqbench -queues $(QUEUE) -threads $(THREADS) \
		-duration $(DURATION) -reps 1 -telemetry \
		-cpuprofile profiles/$(QUEUE)-t$(THREADS).cpu.pprof \
		-memprofile profiles/$(QUEUE)-t$(THREADS).mem.pprof \
		| tee profiles/$(QUEUE)-t$(THREADS).telemetry.txt
	@echo "profiles written to ./profiles/ (go tool pprof profiles/$(QUEUE)-t$(THREADS).cpu.pprof)"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sssp
	$(GO) run ./examples/dessim
	$(GO) run ./examples/branchbound
	$(GO) run ./examples/pqsort
	$(GO) run ./examples/orderbook -orders 5000

clean:
	$(GO) clean ./...
	rm -rf $(SMOKE_BIN)

GO ?= go

.PHONY: all build test race cover bench bench-smoke bench-ann bench-paper ledger ledger-compare fault-sweep fuzz vet lint fmt fmt-check examples clean

all: vet lint test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race tier, and the one list CI's race job runs. The second pass runs
# again at forced GOMAXPROCS extremes. Every model build, IVF build and
# RecTree fill sizes its worker pool from GOMAXPROCS, so -cpu=1 runs them
# on one worker (the serial path, no goroutines) and -cpu=4 on four; the
# root package's writer hammers drive the engine's commit locks and gates
# at both settings too. The serving tier's hand-overs (a session's read
# token, a client connection's reader role, the router pool's pick) depend
# on who gets there first, so one pass proves little: the third runs five.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu=1,4 . ./internal/ann/... ./internal/btree/... ./internal/catalog/... ./internal/metrics/... ./internal/rec/... ./internal/reccache/... ./internal/exec/... ./internal/plan/... ./internal/engine/... ./internal/storage/... ./internal/frontend/... ./internal/server/... ./internal/shard/... ./internal/wire/... ./client/...
	$(GO) test -race -count=5 ./internal/frontend/... ./client/... ./internal/shard/...

cover:
	$(GO) test -cover ./...

# testing.B benches for every paper table/figure (scaled datasets).
bench:
	$(GO) test -bench=. -benchmem ./...

# Every testing.B in the module, one iteration each: the micro-benchmarks
# performance claims are sized by cannot rot unnoticed. ~40 s on 2 cores;
# the figures it prints mean nothing at one iteration.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# IVF vector index frontier: recall@10 vs throughput speedup over the
# exact scan, swept across nprobe and dataset scales. Writes
# BENCH_ann.json.
bench-ann:
	$(GO) run ./cmd/recdb-bench -exp ann -ann-scales 0.25,1.0 -json BENCH_ann.json

# The whole-stack ledger (benchmark/README.md): real router + shard
# binaries on loopback, four workloads, per-layer ladder. Every
# serving-path number in DESIGN.md and README.md is a row of its output.
ledger:
	$(GO) run ./benchmark -out ledger.json

# Judge two ledger runs against BENCHMARK.json's bounds:
#   make ledger-compare A=parent.json B=change.json
ledger-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# Exhaustive crash simulation: every fault point x every fault mode
# (fail / torn write / power cut / bit flip), every byte of a snapshot
# flipped, the page-fault sweep (a failed or flipped page operation
# under a 4-frame buffer pool over MemDisk), and the
# transaction-atomicity matrix — a crash at every WAL/FS operation inside
# an explicit transaction recovers the whole transaction or none of it.
# The default test run samples all four; this is the full matrix, and the
# one list CI's fault-sweep job runs.
fault-sweep:
	RECDB_FAULT_SWEEP=1 $(GO) test -run 'TestCrashSweep|TestSnapshotCorruptionSweep|TestHeapPageFaultSweep|TestTxnCrashSweep' -v . ./internal/storage

# Native fuzzing of the byte-level decoders, 15 s per target (their seed
# corpora already run under plain `go test`): WAL records and segments,
# SQL text, wire streams (with the relay's RowBatch check against the
# decoder), the client's slab decode of an answer against the per-tuple
# decoder, and a snapshot's manifest and row files. `go test -fuzz` takes
# one target per run, so this is the one list CI's fuzz job runs.
fuzz:
	$(GO) test -run '^$$' -fuzz='^FuzzDecodeRecord$$' -fuzztime=15s ./internal/wal
	$(GO) test -run '^$$' -fuzz='^FuzzReplay$$' -fuzztime=15s ./internal/wal
	$(GO) test -run '^$$' -fuzz='^FuzzParse$$' -fuzztime=15s ./internal/sql
	$(GO) test -run '^$$' -fuzz='^FuzzReader$$' -fuzztime=15s ./internal/wire
	$(GO) test -run '^$$' -fuzz='^FuzzRowsDecode$$' -fuzztime=15s ./client
	$(GO) test -run '^$$' -fuzz='^FuzzManifest$$' -fuzztime=15s ./internal/persist
	$(GO) test -run '^$$' -fuzz='^FuzzRowFile$$' -fuzztime=15s ./internal/persist

# Regenerate the paper's tables at full scale (see EXPERIMENTS.md).
bench-paper:
	$(GO) run ./cmd/recdb-bench -md

vet:
	$(GO) vet ./...

# RecDB's own analyzer suite (pin/unpin balance, operator Close
# propagation, lock discipline, error wrapping, no library panics).
lint:
	$(GO) run ./cmd/recdb-lint ./...

# go fmt works package-wise, so analyzer testdata fixtures (including the
# deliberately unparseable loader fixture) are left alone.
fmt:
	$(GO) fmt ./...

# Fails, listing the files, when any Go source outside testdata/ is not
# gofmt-formatted (or does not parse). CI's fmt-check job runs this.
fmt-check:
	@files=$$(find . -name testdata -prune -o -name '*.go' -print); \
	out=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/movies
	$(GO) run ./examples/poi
	$(GO) run ./examples/caching
	$(GO) run ./examples/analytics

clean:
	$(GO) clean ./...

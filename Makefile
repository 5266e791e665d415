GO ?= go

.PHONY: all build test race cover bench bench-build bench-durability bench-metrics bench-serve bench-concurrency bench-ann bench-sharded bench-paper fault-sweep vet lint fmt examples clean

all: vet lint test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -cpu=1,4 ./internal/ann/... ./internal/btree/... ./internal/catalog/... ./internal/metrics/... ./internal/rec/... ./internal/reccache/... ./internal/exec/... ./internal/plan/... ./internal/engine/... ./internal/storage/... ./internal/frontend/... ./internal/server/... ./internal/shard/... ./internal/wire/... ./client/...
	$(GO) test -race -count=5 ./internal/frontend/... ./client/... ./internal/shard/...

cover:
	$(GO) test -cover ./...

# testing.B benches for every paper table/figure (scaled datasets).
bench:
	$(GO) test -bench=. -benchmem ./...

# Worker-scaling experiment for the parallel build kernels (short mode:
# scaled-down MovieLens). Writes BENCH_build.json.
bench-build:
	$(GO) run ./cmd/recdb-bench -exp scaling -scale 0.25 -workers 1,2,4 -json BENCH_build.json

# Durability cost on the real filesystem: commit throughput per WAL sync
# policy, checkpoint time, cold recovery. Writes BENCH_durability.json.
bench-durability:
	$(GO) run ./cmd/recdb-bench -exp durability -json BENCH_durability.json

# Observability overhead: the same query with instruments idle vs under
# EXPLAIN ANALYZE, plus the isolated per-query instrumentation cost
# (DESIGN.md §9). Writes BENCH_metrics.json.
bench-metrics:
	$(GO) run ./cmd/recdb-bench -exp metrics -scale 0.25 -json BENCH_metrics.json

# Serving-layer experiment: a real recdb-server on loopback TCP driven
# by real client connections; throughput and p50/p99 latency at 1, 8,
# and 64 connections. Writes BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/recdb-bench -exp serve -scale 0.25 -conns 1,8,64 -json BENCH_serve.json

# Concurrency sweep for the snapshot-read path: 1, 8, and 64 connections
# under a pure-read and a 90/10 read/write mix (the mixed cells run
# against a durable database, so writes pay their real WAL fsync and the
# sweep shows whether reads stall behind them). Writes
# BENCH_concurrency.json.
bench-concurrency:
	$(GO) run ./cmd/recdb-bench -exp serve -scale 0.25 -conns 1,8,64 -mix 100/0,90/10 -json BENCH_concurrency.json

# IVF vector index frontier: recall@10 vs throughput speedup over the
# exact scan, swept across nprobe and dataset scales. Writes
# BENCH_ann.json.
bench-ann:
	$(GO) run ./cmd/recdb-bench -exp ann -ann-scales 0.25,1.0 -json BENCH_ann.json

# Horizontal-scale experiment: real recdb-server shard processes fronted
# by a real recdb-router on loopback; aggregate point-lookup and
# durable-insert throughput at 1, 2, and 4 shards, plus a router-less
# direct baseline for the routing-overhead check. Writes
# BENCH_sharded.json.
bench-sharded:
	$(GO) run ./cmd/recdb-bench -exp sharded -shard-counts 1,2,4 -json BENCH_sharded.json

# Exhaustive crash simulation: every fault point x every fault mode, and
# every byte of a snapshot flipped (the default test run samples both),
# plus the page-I/O sweep under the file-backed buffer pool.
fault-sweep:
	RECDB_FAULT_SWEEP=1 $(GO) test -run 'TestCrashSweep|TestSnapshotCorruptionSweep|TestHeapCrashSweep' -v . ./internal/storage

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

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/movies
	$(GO) run ./examples/poi
	$(GO) run ./examples/caching
	$(GO) run ./examples/analytics

clean:
	$(GO) clean ./...

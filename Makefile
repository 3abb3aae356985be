# Flood — learned multi-dimensional index (reproduction of "Learning
# Multi-Dimensional Indexes", SIGMOD 2020).

GO ?= go

.PHONY: all build test vet docs bench bench-serve bench-full fuzz-smoke clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# docs gates the documentation: vet plus a lint that fails on undocumented
# exported identifiers in the public API surface (root package, the SQL and
# data-generation packages, and the internal packages the architecture docs
# walk through). CI runs this on every push.
docs: vet
	$(GO) run ./cmd/doclint . ./floodsql ./datagen \
		./internal/core ./internal/query ./internal/colstore ./internal/encode \
		./internal/wal ./internal/faultfs ./internal/modeltest \
		./internal/server ./internal/loadgen ./internal/shard

# bench runs the scan-kernel, build, parallel-execution, row-retrieval, and
# context/limit benchmarks that gate perf PRs and records them in
# BENCH_scan.json so the trajectory is diffable in git. SelectLimit10From1M
# proves the LIMIT pushdown short-circuits (compare rows scanned against
# SelectRows1M); Execute1M vs ExecuteContext1M is the context-plumbing
# overhead-parity pair.
bench:
	$(GO) test ./internal/core -run '^$$' \
		-bench 'Residual|WideRect|SteadyState|Build1M|Build200k|Ablation|Parallel|Batch|DeleteHeavy' \
		-benchmem -benchtime=1s | tee /tmp/bench_scan.txt
	$(GO) test . -run '^$$' -bench '^BenchmarkSelect|^BenchmarkExecute|^BenchmarkSaveLoad|^BenchmarkDictEq|^BenchmarkSharded' \
		-benchmem -benchtime=1s | tee -a /tmp/bench_scan.txt
	$(GO) test ./internal/wal -run '^$$' -bench 'WALAppend' \
		-benchmem -benchtime=1s | tee -a /tmp/bench_scan.txt
	$(GO) run ./cmd/benchjson -commit "$$(git rev-parse --short HEAD)" < /tmp/bench_scan.txt > BENCH_scan.json

# bench-serve records serving-tier latency under load: floodload starts an
# in-process floodserver over a 1M-row sales dataset and drives a fixed-QPS
# zipfian open-loop run, writing coordinated-omission-safe p50/p99 latency,
# throughput, shed rate, cache hit rate, and the server-side batching stats
# to BENCH_serve.json (interpreted in docs/BENCHMARKS.md). -compare-shards 4
# repeats the identical run against a 4-shard store and embeds it as the
# document's "sharded" variant, with per-shard routing counts and the
# observed shard skew. To merge with the microbenchmark snapshot into one
# document, pass it to benchjson:
# `go run ./cmd/benchjson -serve BENCH_serve.json < /tmp/bench_scan.txt`.
bench-serve:
	$(GO) run ./cmd/floodload -inprocess 1000000 -qps 2000 -duration 30s \
		-dist zipfian -server-batch-window 2ms -compare-shards 4 \
		-out BENCH_serve.json

# fuzz-smoke gives each fuzz target a short coverage-guided run (also a CI
# job). Minimization is capped so single-CPU runners keep mutating instead
# of shrinking corpus entries for 60s each.
fuzz-smoke:
	$(GO) test . -run '^$$' -fuzz '^FuzzWireDecode$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./floodsql -run '^$$' -fuzz '^FuzzFloodSQLParse$$' \
		-fuzztime 30s -fuzzminimizetime 10x

# bench-full additionally covers the colstore micro-benchmarks.
bench-full: bench
	$(GO) test ./internal/colstore -run '^$$' -bench . -benchmem -benchtime=1s

clean:
	rm -f /tmp/bench_scan.txt

# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet loc bench loadbench figures examples clean

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Non-test Go lines outside the benchmark: the one number every simplicity
# PR reports in CHANGES.md, always counted this way.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

# Reduced-scale benchmarks for every paper figure plus micro/ablation
# benches, for measuring while you work; the raw `go test` output is kept
# on stdout and in the untracked scratch file BENCH_raw.txt. The
# repository's measured baseline is the end-to-end benchmark in benchmark/
# (BENCHMARK.json; `bash benchmark/run.sh --workload W`).
bench:
	go test -bench=. -benchmem ./... | tee BENCH_raw.txt

# Serving-path load benchmark: a wall-clock caqe-serve instance driven by
# caqe-loadgen with 1000 concurrent client sessions cycling through mixed
# contracts, cancellations and slow consumers. BENCH_load_results.json is
# the committed baseline (TTFR percentiles, lifecycle counts, pScore
# trajectory); refresh it on a quiet machine after deliberate serving-path
# changes.
loadbench:
	go build -o /tmp/caqe-serve-bench ./cmd/caqe-serve
	go build -o /tmp/caqe-loadgen-bench ./cmd/caqe-loadgen
	/tmp/caqe-serve-bench -addr 127.0.0.1:8790 -n 400 -clock wall \
		-max-concurrent 64 >/dev/null 2>&1 & echo $$! > /tmp/caqe-serve-bench.pid
	sleep 1
	/tmp/caqe-loadgen-bench -url http://127.0.0.1:8790 -sessions 1000 \
		-duration 15s -out BENCH_load_results.json; \
		st=$$?; kill `cat /tmp/caqe-serve-bench.pid` 2>/dev/null; exit $$st

# Full-scale tables for every figure of the paper's evaluation (§7).
figures:
	go run ./cmd/caqe-bench -fig all

examples:
	go run ./examples/quickstart
	go run ./examples/travelplanner
	go run ./examples/stockticker
	go run ./examples/supplychain
	go run ./examples/adaptive
	go run ./examples/topk

clean:
	go clean ./...

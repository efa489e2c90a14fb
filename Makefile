# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet loc counted figures examples clean

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

# Counted-work gate: every count-unit metric of the four benchmark workloads
# at -quick size, traced, seed 2014 (plus core.virtual_s on the batch ones;
# minus the two of serve-stream that follow its clients' admission race, see
# the script) must equal testdata/counted_work.json. These repeat exactly
# across processes, so a difference is a change in the work the engine does;
# a PR that means one regenerates the manifest with
# `python3 testdata/counted_work.py --write` in the same diff.
counted:
	python3 testdata/counted_work.py

# Full-scale tables for every figure of the paper's evaluation (§7).
figures:
	go run ./cmd/caqe-bench -fig all

examples:
	go run ./examples/quickstart
	go run ./examples/travelplanner
	go run ./examples/stockticker
	go run ./examples/supplychain
	go run ./examples/adaptive

clean:
	go clean ./...

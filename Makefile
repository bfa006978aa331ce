# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test test-short test-race fuzz fuzz-smoke bench bench-default pipeline timeline live-demo experiments

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

# Includes TestDeterminismMatrix, the byte-identity contracts run over
# the real cmd/ binaries (go test -run TestDeterminismMatrix . alone).
test:
	go test ./...

test-short:
	go test -short ./...

# Race-detector pass over the host-parallel runtime (worker pool,
# replica training, concurrent experiment sweeps).
test-race:
	go test -race -short ./...

# Short exploratory fuzz of the routing and partitioning invariants;
# the committed seed corpora replay in every normal `go test` run.
fuzz:
	go test -fuzz FuzzMeshRoute -fuzztime 30s ./internal/topology
	go test -fuzz FuzzPartition -fuzztime 30s ./internal/partition
	go test -fuzz FuzzFaultedRoute -fuzztime 30s ./internal/fault
	go test -fuzz FuzzPipelineSchedule -fuzztime 30s ./internal/cmp
	go test -fuzz FuzzInt16GEMM -fuzztime 30s ./internal/tensor
	go test -fuzz FuzzServeRequest -fuzztime 30s ./internal/serve

# Quick fuzz pass for CI: a few seconds per target on top of the seed
# corpora, enough to catch shallow regressions without slowing the loop.
fuzz-smoke:
	go test -fuzz FuzzMeshRoute -fuzztime 5s ./internal/topology
	go test -fuzz FuzzPartition -fuzztime 5s ./internal/partition
	go test -fuzz FuzzFaultedRoute -fuzztime 5s ./internal/fault
	go test -fuzz FuzzPipelineSchedule -fuzztime 5s ./internal/cmp
	go test -fuzz FuzzInt16GEMM -fuzztime 5s ./internal/tensor
	go test -fuzz FuzzServeRequest -fuzztime 5s ./internal/serve

# One benchmark per paper table/figure plus the per-package benches.
bench:
	go test -bench=. -benchmem ./...

# Full reduced-scale evaluation (slow: trains every benchmark network).
bench-default:
	L2S_BENCH_PROFILE=default go test -bench=. -benchmem .

# Pipelined-inference sweep: throughput vs depth for all four schemes.
pipeline:
	go run ./cmd/l2s-bench -exp pipeline

# Cycle-accurate timeline demo: a Perfetto trace pair (Baseline vs
# SS_Mask) plus compact records and the side-by-side analysis.
timeline:
	go run ./examples/timeline

# Live telemetry demo: train with a windowed JSONL stream and health
# rules, then replay the stream through the l2s-top monitor.
live-demo:
	go run ./cmd/l2s-train -net mlp -epochs 5 -live live.jsonl \
	  -health 'train.epoch.loss.last < 100'
	go run ./cmd/l2s-top -follow live.jsonl -once

experiments:
	go run ./cmd/l2s-bench -exp all

package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"learn2scale/internal/obs"
)

// The serving benchmarks measure end-to-end capacity through the full
// dispatcher: admission, batching, one pipelined simulation pass per
// batch, per-request forward passes. BenchmarkServeBatch1 is the
// batch-size-1 anchor (window 0, depth 1: every request its own
// barrier-scheduled pass); BenchmarkServeBatched is dynamic batching
// at depth 4. Their qps metrics are the batching comparison; compare
// them only within one run on one machine.

// BenchmarkServeTraceOverheadBase / Nil isolate the request-tracing
// hook's cost on the dispatcher's per-request hot path, mirroring the
// obs tap's Off/On pair. Base is the per-request respond accounting
// every request paid before tracing existed (stats mutex, stable
// counter, volatile latency histogram); Nil runs the identical
// accounting plus the disabled-tracer branches exactly as the
// dispatcher executes them — the dequeue-stamp guard and the trace
// check. Compare the pair within one run; TestServeTraceNilZeroAlloc
// runs the Nil body and pins its zero-alloc side.
//
// The pair is declared FIRST in this file on purpose: go test runs
// benchmarks in declaration order, and running the pair before the
// multi-goroutine load benchmarks keeps both sides on the same
// processor frequency state — turbo decay during the load benchmarks
// otherwise lands unevenly on a comparison of a few nanoseconds.
var traceProbe bool

func traceOverheadServer() (*Server, *pending) {
	s := &Server{cfg: Config{Obs: obs.New()}}
	p := &pending{admitted: time.Now()}
	return s, p
}

// A fixed observed latency keeps the histogram's bucket search on one
// path for both sides of the pair; a live time.Since would drift
// across buckets as the benchmark runs and add noise larger than the
// difference the pair measures.
const traceOverheadLatency = 250 * time.Microsecond

func BenchmarkServeTraceOverheadBase(b *testing.B) {
	s, p := traceOverheadServer()
	_ = p
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.countResponded(traceOverheadLatency)
	}
}

func BenchmarkServeTraceOverheadNil(b *testing.B) {
	s, p := traceOverheadServer() // no trace sink: the disabled path
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.stampDequeued(p)
		traceProbe = s.traceOn || p.traced
		s.countResponded(traceOverheadLatency)
	}
}

// benchLoad drives one closed-loop burst per iteration and reports
// sustained QPS and latency quantiles from the final iteration. The
// headline pair serves a single-model stream: coalescing only pays
// when requests share a model (one pipeline pass for the whole group),
// and MaxBatch matches the client count so a full batch closes the
// window without waiting out the timer.
func benchLoad(b *testing.B, cfg Config, clients int) {
	s, err := New(cfg, testModels(b))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	mix := []ModelKey{{Scheme: fixtureSchemes[3]}} // ssmask/float32
	var rep LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = RunLoad(context.Background(), s, LoadConfig{
			Requests: 32,
			Clients:  clients,
			Mix:      mix,
			Seed:     int64(i) + 1,
		})
		if rep.Failed > 0 {
			b.Fatalf("load failed: %s", rep)
		}
	}
	b.StopTimer()
	b.ReportMetric(rep.QPS, "qps")
	b.ReportMetric(float64(rep.P50.Microseconds()), "p50-us")
	b.ReportMetric(float64(rep.P99.Microseconds()), "p99-us")
}

func BenchmarkServeBatch1(b *testing.B) {
	benchLoad(b, Config{QueueCap: 64, Window: 0, Depth: 1}, 8)
}

func BenchmarkServeBatched(b *testing.B) {
	benchLoad(b, Config{QueueCap: 64, Window: 2 * time.Millisecond, MaxBatch: 8, Depth: 4}, 8)
}

// BenchmarkServeTraceRecord measures the ENABLED tracer end to end —
// full closed-loop serving with every request traced into a wall-mode
// sink — next to BenchmarkServeBatched (same load shape, tracing off)
// for an honest price tag on turning tracing on.
func BenchmarkServeTraceRecord(b *testing.B) {
	var buf bytes.Buffer
	sink := NewTraceSink(&buf, TraceOptions{})
	s, err := New(Config{QueueCap: 64, Window: 2 * time.Millisecond, MaxBatch: 8, Depth: 4, Trace: sink},
		testModels(b))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	mix := []ModelKey{{Scheme: fixtureSchemes[3]}} // ssmask/float32
	var rep LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = RunLoad(context.Background(), s, LoadConfig{
			Requests: 32,
			Clients:  8,
			Mix:      mix,
			Seed:     int64(i) + 1,
			Trace:    true,
		})
		if rep.Failed > 0 {
			b.Fatalf("load failed: %s", rep)
		}
	}
	b.StopTimer()
	b.ReportMetric(rep.QPS, "qps")
	b.ReportMetric(float64(rep.P99.Microseconds()), "p99-us")
}

// BenchmarkServeOpenLoop measures the open-loop (Poisson-arrival)
// path: latency under an arrival process that does not wait for
// completions.
func BenchmarkServeOpenLoop(b *testing.B) {
	s, err := New(Config{QueueCap: 128, Window: time.Millisecond, MaxBatch: 16, Depth: 4}, testModels(b))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var rep LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = RunLoad(context.Background(), s, LoadConfig{
			Requests:  32,
			OpenLoop:  true,
			TargetQPS: 400,
			Seed:      int64(i) + 1,
		})
		if rep.Failed > 0 {
			b.Fatalf("load failed: %s", rep)
		}
	}
	b.StopTimer()
	b.ReportMetric(rep.QPS, "qps")
	b.ReportMetric(float64(rep.P99.Microseconds()), "p99-us")
}

package cmp

import (
	"testing"

	"learn2scale/internal/netzoo"
	"learn2scale/internal/partition"
)

// BenchmarkRunPipelineAlexNet measures the pipelined scheduler on the
// PR's acceptance workload — AlexNet at depth 4 with 8 inferences in
// flight on 16 cores — and reports the simulated steady-state
// throughput alongside the host-side cost. The inf/Mcycle metric is
// the simulated throughput-vs-replay comparison (gated by
// TestRunPipelineThroughputBeatsReplay); BenchmarkRunPlanAlexNet
// above it is the sequential anchor.
func BenchmarkRunPipelineAlexNet(b *testing.B) {
	sys := MustNew(DefaultConfig(16))
	plan := partition.NewPlan(netzoo.AlexNet(), 16)
	var throughput float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.RunPipeline(plan, PipelineOptions{Depth: 4, Batches: 8})
		if err != nil {
			b.Fatal(err)
		}
		throughput = rep.ThroughputPerMCycle
	}
	b.ReportMetric(throughput, "inf/Mcycle")
}

// BenchmarkRunPipelineDepth1AlexNet is the same workload through the
// scheduler at depth 1 — the barrier schedule replayed per batch — so
// the pipelined/sequential pair is measured by the same code path.
func BenchmarkRunPipelineDepth1AlexNet(b *testing.B) {
	sys := MustNew(DefaultConfig(16))
	plan := partition.NewPlan(netzoo.AlexNet(), 16)
	var throughput float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.RunPipeline(plan, PipelineOptions{Depth: 1, Batches: 8})
		if err != nil {
			b.Fatal(err)
		}
		throughput = rep.ThroughputPerMCycle
	}
	b.ReportMetric(throughput, "inf/Mcycle")
}

package cmp

import (
	"bytes"
	"reflect"
	"testing"

	"learn2scale/internal/fault"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/obs"
	"learn2scale/internal/partition"
	"learn2scale/internal/timeline"
)

// pipelinePlans builds one plan per parallelization scheme the paper
// evaluates, using structural proxies for the learned masks (this
// package cannot import internal/core): dense = Baseline, AlexNet's
// channel groups = StructureLevel, a seeded random block mask = SS, a
// distance-decay band mask = SSMask.
func pipelinePlans(cores int) map[string]*partition.Plan {
	plans := map[string]*partition.Plan{
		"dense":   partition.NewPlan(netzoo.CaffeNet(), cores),
		"grouped": partition.NewPlan(netzoo.AlexNet(), cores),
	}

	rnd := partition.NewPlan(netzoo.LeNet(), cores)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for k := 1; k < len(rnd.Layers); k++ {
		m := make(partition.BlockMask, cores)
		for i := range m {
			m[i] = make([]bool, cores)
			for j := range m[i] {
				m[i][j] = i == j || next()%4 == 0
			}
		}
		rnd.SetMask(k, m)
	}
	plans["random-sparse"] = rnd

	band := partition.NewPlan(netzoo.MLP(), cores)
	for k := 1; k < len(band.Layers); k++ {
		m := make(partition.BlockMask, cores)
		for i := range m {
			m[i] = make([]bool, cores)
			for j := range m[i] {
				d := i - j
				if d < 0 {
					d = -d
				}
				m[i][j] = d <= 2
			}
		}
		band.SetMask(k, m)
	}
	plans["distance-decay"] = band
	return plans
}

// runBarrier runs RunPlanPlaced with fresh obs and timeline attached
// and returns the report plus both serialized records.
func runBarrier(t *testing.T, cfg Config, p *partition.Plan, place partition.Placement) (Report, []byte, []byte) {
	t.Helper()
	reg, sink := obs.New(), timeline.NewSink()
	cfg.Obs, cfg.Timeline = reg, sink
	rep, err := MustNew(cfg).RunPlanPlaced(p, place)
	if err != nil {
		t.Fatal(err)
	}
	ob, tb := recordBytes(t, reg, sink)
	return rep, ob, tb
}

// runPipe runs RunPipeline the same way.
func runPipe(t *testing.T, cfg Config, p *partition.Plan, opt PipelineOptions) (PipelineReport, []byte, []byte) {
	t.Helper()
	reg, sink := obs.New(), timeline.NewSink()
	cfg.Obs, cfg.Timeline = reg, sink
	rep, err := MustNew(cfg).RunPipeline(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	ob, tb := recordBytes(t, reg, sink)
	return rep, ob, tb
}

func recordBytes(t *testing.T, reg *obs.Registry, sink *timeline.Sink) ([]byte, []byte) {
	t.Helper()
	var ob, tb bytes.Buffer
	if err := reg.Record("test", nil, false).WriteJSON(&ob); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteRecord(&tb, "test", nil); err != nil {
		t.Fatal(err)
	}
	return ob.Bytes(), tb.Bytes()
}

// TestRunPipelineDepthOneMatchesBarrier is the tentpole's differential
// contract: a depth-1 single-batch pipelined run is the barrier model
// on a session clock, so its batch report, stable obs record and
// timeline record must all be bit-identical to RunPlanPlaced — for
// every parallelization scheme, fault-free and under transient faults.
func TestRunPipelineDepthOneMatchesBarrier(t *testing.T) {
	for name, plan := range pipelinePlans(16) {
		for _, faulty := range []bool{false, true} {
			cfg := DefaultConfig(16)
			if faulty {
				cfg.Fault = &fault.Config{Seed: 9, DropProb: 0.03, RetryBudget: 2}
			}
			want, wantObs, wantTL := runBarrier(t, cfg, plan, nil)
			got, gotObs, gotTL := runPipe(t, cfg, plan, PipelineOptions{Depth: 1, Batches: 1})

			if !reflect.DeepEqual(want, got.Inference) {
				t.Errorf("%s faulty=%v: depth-1 inference report differs from barrier\nbarrier:  %+v\npipeline: %+v",
					name, faulty, want, got.Inference)
			}
			if !bytes.Equal(wantObs, gotObs) {
				t.Errorf("%s faulty=%v: stable obs records differ\n--- barrier\n%s\n--- pipeline\n%s",
					name, faulty, wantObs, gotObs)
			}
			if !bytes.Equal(wantTL, gotTL) {
				t.Errorf("%s faulty=%v: timeline records differ (%d vs %d bytes)",
					name, faulty, len(wantTL), len(gotTL))
			}
			if got.TotalCycles != want.TotalCycles() {
				t.Errorf("%s faulty=%v: pipeline total %d, barrier %d",
					name, faulty, got.TotalCycles, want.TotalCycles())
			}
		}
	}
}

// A depth-1 run under an explicit placement must also match the placed
// barrier run (placement permutes routes, not the schedule).
func TestRunPipelineDepthOnePlaced(t *testing.T) {
	plan := partition.NewPlan(netzoo.MLP(), 16)
	place := make(partition.Placement, 16)
	for i := range place {
		place[i] = (i*5 + 3) % 16 // 5 ⟂ 16: a fixed permutation
	}
	cfg := DefaultConfig(16)
	want, _, wantTL := runBarrier(t, cfg, plan, place)
	got, _, gotTL := runPipe(t, cfg, plan, PipelineOptions{Depth: 1, Batches: 1, Place: place})
	if !reflect.DeepEqual(want, got.Inference) {
		t.Errorf("placed depth-1 report differs:\nbarrier:  %+v\npipeline: %+v", want, got.Inference)
	}
	if !bytes.Equal(wantTL, gotTL) {
		t.Error("placed depth-1 timeline record differs from barrier")
	}
}

// Fill, steady and drain must telescope exactly to the total at every
// depth and batch count, and completions must be strictly increasing
// (each batch occupies the last stage after its predecessor).
func TestRunPipelineTelescoping(t *testing.T) {
	plan := partition.NewPlan(netzoo.MLP(), 16)
	cfg := DefaultConfig(16)
	sys := MustNew(cfg)
	for _, depth := range []int{1, 2, 3} {
		for _, batches := range []int{1, 2, 5} {
			rep, err := sys.RunPipeline(plan, PipelineOptions{Depth: depth, Batches: batches})
			if err != nil {
				t.Fatalf("depth %d batches %d: %v", depth, batches, err)
			}
			if got := rep.FillCycles + rep.SteadyCycles + rep.DrainCycles; got != rep.TotalCycles {
				t.Errorf("depth %d batches %d: fill %d + steady %d + drain %d = %d, total %d",
					depth, batches, rep.FillCycles, rep.SteadyCycles, rep.DrainCycles, got, rep.TotalCycles)
			}
			if len(rep.Completions) != batches {
				t.Fatalf("depth %d batches %d: %d completions", depth, batches, len(rep.Completions))
			}
			if rep.TotalCycles != rep.Completions[batches-1] {
				t.Errorf("depth %d batches %d: total %d != last completion %d",
					depth, batches, rep.TotalCycles, rep.Completions[batches-1])
			}
			for b := 1; b < batches; b++ {
				if rep.Completions[b] <= rep.Completions[b-1] {
					t.Errorf("depth %d batches %d: completion[%d]=%d not after completion[%d]=%d",
						depth, batches, b, rep.Completions[b], b-1, rep.Completions[b-1])
				}
			}
			if batches == 1 && (rep.SteadyCycles != 0 || rep.DrainCycles != 0 || rep.FillCycles != rep.TotalCycles) {
				t.Errorf("depth %d single batch: fill %d steady %d drain %d total %d",
					depth, rep.FillCycles, rep.SteadyCycles, rep.DrainCycles, rep.TotalCycles)
			}
			for s, st := range rep.Stages {
				if st.Occupancy < 0 || st.Occupancy > 1+1e-9 {
					t.Errorf("depth %d batches %d: stage %d occupancy %v", depth, batches, s, st.Occupancy)
				}
			}
		}
	}
}

// Pipelining AlexNet must beat single-pass replay: the measured
// steady-state rate at depth ≥ 4 exceeds 1/latency of the barrier
// model — the speedup the pipeline exists to deliver. Depth 1 with
// many batches must also degenerate to exactly the replay rate.
func TestRunPipelineThroughputBeatsReplay(t *testing.T) {
	plan := partition.NewPlan(netzoo.AlexNet(), 16)
	cfg := DefaultConfig(16)
	sys := MustNew(cfg)
	barrier, err := sys.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	replay := 1e6 / float64(barrier.TotalCycles())

	d1, err := sys.RunPipeline(plan, PipelineOptions{Depth: 1, Batches: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Depth-1 batches are strictly sequential barrier runs, so each
	// completion interval is exactly one barrier latency.
	if d1.SteadyCycles+d1.DrainCycles != 3*barrier.TotalCycles() {
		t.Errorf("depth-1 inter-completion span %d, want 3×%d",
			d1.SteadyCycles+d1.DrainCycles, barrier.TotalCycles())
	}

	d4, err := sys.RunPipeline(plan, PipelineOptions{Depth: 4, Batches: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d4.ThroughputPerMCycle <= replay {
		t.Errorf("depth-4 throughput %.3f inf/Mcycle does not beat replay %.3f",
			d4.ThroughputPerMCycle, replay)
	}
	if d4.ThroughputPerMCycle <= d1.ThroughputPerMCycle {
		t.Errorf("depth-4 throughput %.3f not above depth-1 %.3f",
			d4.ThroughputPerMCycle, d1.ThroughputPerMCycle)
	}
}

// Report.PipelinedThroughput is an analytic bottleneck bound computed
// from per-layer times; the simulated schedule can only be slower
// (contention, stage imbalance, integer core splits). Assert the bound
// holds and that the estimate stays within a documented factor of the
// measurement for a deep pipeline — the check that keeps the old
// estimator honest now that throughput is simulated.
func TestPipelinedThroughputEstimateVsSimulation(t *testing.T) {
	plan := partition.NewPlan(netzoo.AlexNet(), 16)
	sys := MustNew(DefaultConfig(16))
	rep, err := sys.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	est := rep.PipelinedThroughput()

	sim, err := sys.RunPipeline(plan, PipelineOptions{Depth: 4, Batches: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ThroughputPerMCycle > est.InputsPerMCycle*1.001 {
		t.Errorf("simulated throughput %.3f exceeds the analytic upper bound %.3f",
			sim.ThroughputPerMCycle, est.InputsPerMCycle)
	}
	// The per-layer bound assumes one stage per layer and zero
	// contention; a 4-stage pipeline on real hardware sits well below
	// it, but not absurdly so. 20× is the documented envelope.
	if sim.ThroughputPerMCycle < est.InputsPerMCycle/20 {
		t.Errorf("simulated throughput %.3f more than 20× below the estimate %.3f — estimator or scheduler broken",
			sim.ThroughputPerMCycle, est.InputsPerMCycle)
	}
}

// Faulty pipelined runs must conserve packets and report coherent
// failure bookkeeping at depth > 1.
func TestRunPipelineFaulty(t *testing.T) {
	plan := partition.NewPlan(netzoo.CaffeNet(), 16)
	cfg := DefaultConfig(16)
	cfg.Fault = &fault.Config{Seed: 3, DropProb: 0.05, RetryBudget: 1, DeadCores: []int{5}}
	rep, err := MustNew(cfg).RunPipeline(plan, PipelineOptions{Depth: 3, Batches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoC.Packets != rep.NoC.EjectedPackets+rep.NoC.LostPackets {
		t.Errorf("packet conservation violated: %d != %d ejected + %d lost",
			rep.NoC.Packets, rep.NoC.EjectedPackets, rep.NoC.LostPackets)
	}
	if rep.TransfersScheduled == 0 {
		t.Error("no transfer groups scheduled")
	}
	if len(rep.Failed) == 0 {
		t.Error("dead core produced no failed transfers")
	}
	for i := 1; i < len(rep.Failed); i++ {
		a, b := rep.Failed[i-1], rep.Failed[i]
		if a.Batch > b.Batch || (a.Batch == b.Batch && a.Layer > b.Layer) ||
			(a.Batch == b.Batch && a.Layer == b.Layer && (a.Src > b.Src || (a.Src == b.Src && a.Dst > b.Dst))) {
			t.Errorf("Failed not in (batch, layer, src, dst) order at %d: %+v before %+v", i, a, b)
		}
	}
	// Determinism: the identical run reproduces byte-for-byte.
	rep2, err := MustNew(cfg).RunPipeline(plan, PipelineOptions{Depth: 3, Batches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Error("repeated faulty pipeline run is not deterministic")
	}
}

// RunPipeline draws its session simulator from the System's pool, which
// RunPlan's per-layer bursts share. A run on a System whose pool holds
// simulators left over from earlier pipelines and barrier runs must
// report exactly what the same run on a fresh System reports.
func TestRunPipelineReuseMatchesFresh(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Fault = &fault.Config{Seed: 3, DropProb: 0.05, RetryBudget: 1, DeadCores: []int{5}}
	caffe := partition.NewPlan(netzoo.CaffeNet(), 16)
	alex := partition.NewPlan(netzoo.AlexNet(), 16)
	runs := []struct {
		plan *partition.Plan
		opt  PipelineOptions
	}{
		{caffe, PipelineOptions{Depth: 3, Batches: 4}},
		{alex, PipelineOptions{Depth: 2, Batches: 2}},
		{caffe, PipelineOptions{Depth: 3, Batches: 4}},
	}
	sys := MustNew(cfg)
	for i, run := range runs {
		if _, err := sys.RunPlan(alex); err != nil {
			t.Fatal(err)
		}
		got, err := sys.RunPipeline(run.plan, run.opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MustNew(cfg).RunPipeline(run.plan, run.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d on a reused System differs from a fresh System's:\nreused %+v\nfresh  %+v", i, got, want)
		}
	}
}

func TestRunPipelineRejects(t *testing.T) {
	sys := MustNew(DefaultConfig(16))
	if _, err := sys.RunPipeline(partition.NewPlan(netzoo.MLP(), 8), PipelineOptions{Depth: 1}); err == nil {
		t.Error("core-count mismatch accepted")
	}
	plan := partition.NewPlan(netzoo.MLP(), 16)
	if _, err := sys.RunPipeline(plan, PipelineOptions{Depth: 99}); err == nil {
		t.Error("absurd depth accepted")
	}
	if _, err := sys.RunPipeline(plan, PipelineOptions{Place: partition.Placement{0, 0}}); err == nil {
		t.Error("invalid placement accepted")
	}
}

// TestSystemReuseDeterminism: one System reused across RunPipeline
// calls, as each serving model reuses its simulator for every batch,
// yields the same report as a fresh System — reuse must be invisible.
func TestSystemReuseDeterminism(t *testing.T) {
	plan := partition.NewPlan(netzoo.MLP(), 4)
	opt := PipelineOptions{Depth: 2, Batches: 3}
	var want PipelineReport
	s, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, err := s.RunPipeline(plan, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = rep
			continue
		}
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("run %d on a reused System differs from its first run:\n%+v\n%+v", i, rep, want)
		}
	}
	fresh, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fresh.RunPipeline(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("a fresh System differs from a reused one:\n%+v\n%+v", rep, want)
	}
}

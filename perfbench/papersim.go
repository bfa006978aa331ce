package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"time"

	"learn2scale/internal/cmp"
	"learn2scale/internal/core"
	"learn2scale/internal/data"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/partition"
)

// paper-sim simulates the paper's setting on the 16-core mesh: the
// full-scale AlexNet under the traditional partition, and the Table IV
// MLP trained under Baseline and SS_Mask.
const (
	paperCores = 16
	// paperSetupReps builds paper-sim three times; each build trains for
	// several seconds.
	paperSetupReps = 3
	paperLimit     = 5 * time.Second
	// fastestOfCycles is how many cycles each position's fastest call is
	// taken over; a loop runs at least this many.
	fastestOfCycles = 3
	// paperSpeedup is Table IV's MLP SS_Mask system speedup in the paper.
	paperSpeedup = 1.59
)

var (
	paperSchemes = []core.Scheme{core.Baseline, core.SSMask}
	paperPlans   = []string{"alexnet", "mlp-baseline", "mlp-ssmask"}
	paperDepths  = []int{1, 2, 4}
	paperBatches = []int{1, 2, 4}
)

// paperSetup is one build of paper-sim.
type paperSetup struct {
	ds     *data.Dataset
	models []*core.TrainedModel // in paperSchemes order
	plans  []*partition.Plan    // in paperPlans order
	sys    *cmp.System
	trainS map[core.Scheme]time.Duration
}

// buildPaper trains the Table IV MLP (quick profile, seed 11) under
// Baseline and SS_Mask exactly as core.EvalSparseNet does, and builds
// the AlexNet plan and the simulator.
func buildPaper() (*paperSetup, error) {
	net := core.Table4Nets(core.Quick)[0]
	p := &paperSetup{ds: net.Data(net.Seed), trainS: map[core.Scheme]time.Duration{}}
	p.plans = append(p.plans, partition.NewPlan(netzoo.AlexNet(), paperCores))
	for _, scheme := range paperSchemes {
		opt := core.TrainOptions{
			Cores: paperCores, Lambda: net.Lambda, ThresholdRel: net.ThresholdRel,
			SGD: net.SGD, Seed: net.Seed,
		}
		t0 := time.Now()
		tm, err := core.Train(scheme, net.Spec, p.ds, opt)
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", scheme, err)
		}
		p.trainS[scheme] = time.Since(t0)
		p.models = append(p.models, tm)
		p.plans = append(p.plans, tm.Plan)
	}
	sys, err := cmp.New(cmp.DefaultConfig(paperCores))
	if err != nil {
		return nil, err
	}
	p.sys = sys
	return p, nil
}

// identity names what a build trained: each model's accuracy, block
// masks and logits on the first test sample.
func (p *paperSetup) identity() string {
	var b strings.Builder
	for _, tm := range p.models {
		fmt.Fprintf(&b, "%s %v %v %v;", tm.Scheme, tm.Accuracy, tm.Masks, tm.Net.Forward(p.ds.TestX[0], false).Data)
	}
	return b.String()
}

// simCall is one RunPipeline call of the paper-sim loop.
type simCall struct {
	plan    int // index into paperPlans
	depth   int
	batches int
	place   partition.Placement // nil is the identity placement
}

// paperCalls generates cycles of the measured loop from rng: each cycle
// is every (depth, batches, plan) combination, plans interleaved, with a
// fresh random core placement per call. The first cycle's depth-1
// single-batch calls keep the identity placement, which the barrier
// check needs. Depth is clamped to each plan's synaptic layers.
func paperCalls(rng *rand.Rand, cycle int, layers []int) []simCall {
	var out []simCall
	for _, depth := range paperDepths {
		for _, b := range paperBatches {
			for plan, l := range layers {
				c := simCall{plan: plan, depth: min(depth, l), batches: b}
				if cycle > 0 || depth > 1 || b > 1 {
					c.place = partition.Placement(rng.Perm(paperCores))
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// paperRun holds paper-sim's references.
type paperRun struct {
	r     *run
	setup *paperSetup
	rng   *rand.Rand
	cycle int
	// barrier[plan] is RunPlanPlaced at identity placement.
	barrier []cmp.Report
	seen    map[string]bool
}

// exec runs and checks one call.
func (w *paperRun) exec(c simCall) (time.Duration, cmp.PipelineReport, bool) {
	plan := w.setup.plans[c.plan]
	t0 := time.Now()
	rep, err := w.setup.sys.RunPipeline(plan, cmp.PipelineOptions{Depth: c.depth, Batches: c.batches, Place: c.place})
	d := time.Since(t0)
	what := fmt.Sprintf("%s depth %d batches %d", paperPlans[c.plan], c.depth, c.batches)
	if err != nil {
		w.r.fail("%s: %v", what, err)
		return d, rep, false
	}
	if !w.r.checkPipeline(what, rep, c.batches) {
		return d, rep, false
	}
	if c.depth == 1 {
		// Placement moves messages, never per-core compute; and an
		// identity-placed single batch is the barrier run exactly.
		ref := w.barrier[c.plan]
		if rep.Inference.ComputeCycles != ref.ComputeCycles {
			w.r.fail("%s: %d compute cycles, barrier run %d", what, rep.Inference.ComputeCycles, ref.ComputeCycles)
			return d, rep, false
		}
		if c.place == nil && c.batches == 1 && !reflect.DeepEqual(rep.Inference, ref) {
			w.r.fail("%s: depth-1 report differs from RunPlanPlaced", what)
			return d, rep, false
		}
	}
	return d, rep, true
}

// loop runs whole cycles of distinct calls until dur has passed; whole
// cycles keep every run's mix of plans, depths and batch counts the same.
//
// Each position of a cycle runs the same plan, depth and batch count in
// every cycle, only with a fresh placement, so its cycles are repeats of
// one timing, and the fastest is the one a neighbour on the shared host
// slowed least (see fastWindows). The loop reports throughput and median
// latency over each position's fastest call in its first
// fastestOfCycles cycles: a fixed count, because the fastest of more
// repeats reads lower on any host.
func (w *paperRun) loop(dur time.Duration, tally *simTally) loopStats {
	var st loopStats
	layers := make([]int, len(w.setup.plans))
	for i, p := range w.setup.plans {
		layers[i] = len(p.Layers)
	}
	var fastest samples // per cycle position
	start := time.Now()
	prevEnd := start
	for cyc := 0; cyc < fastestOfCycles || time.Since(start) < dur; cyc++ {
		for j, c := range paperCalls(w.rng, w.cycle, layers) {
			key := fmt.Sprint(c)
			if w.seen[key] {
				w.r.fail("call repeated: %s", key)
			}
			w.seen[key] = true
			st.lag = append(st.lag, time.Since(prevEnd))
			d, rep, ok := w.exec(c)
			prevEnd = time.Now()
			st.record(prevEnd.Sub(start), d, ok, paperLimit)
			if ok && tally != nil {
				tally.add(d, rep)
			}
			if cyc >= fastestOfCycles {
				continue
			}
			if j == len(fastest) {
				fastest = append(fastest, d)
			}
			fastest[j] = min(fastest[j], d)
		}
		w.cycle++
	}
	st.wall = time.Since(start)
	st.rate = share(float64(len(fastest)), fastest.total().Seconds())
	st.p50, _ = fastest.quantile(50)
	return st
}

func runPaperSim(r *run) error {
	trainS := map[core.Scheme][]float64{}
	var trainShares []float64
	setup, err := medianSetup(r, paperSetupReps, func() (*paperSetup, error) {
		t0 := time.Now()
		p, err := buildPaper()
		if err == nil {
			trainShares = append(trainShares, noteTraining(trainS, p.trainS, time.Since(t0)))
		}
		return p, err
	}, (*paperSetup).identity, func(*paperSetup) {})
	if err != nil {
		return err
	}

	w := &paperRun{r: r, setup: setup, rng: rand.New(rand.NewSource(r.seed)), seen: map[string]bool{}}
	for _, p := range setup.plans {
		rep, err := setup.sys.RunPlanPlaced(p, nil)
		if err != nil {
			return err
		}
		w.barrier = append(w.barrier, rep)
	}
	mask := setup.models[1]
	r.set("ssmask_speedup", share(float64(w.barrier[1].TotalCycles()), float64(w.barrier[2].TotalCycles())))
	r.set("ssmask_accuracy", mask.Accuracy)
	r.notes["paper_ssmask_speedup"] = paperSpeedup
	r.notes["sim_inf_per_mcycle_reference"] = "none: the paper gives no AlexNet pipeline throughput, so this value is unvalidated"
	ref, err := setup.sys.RunPipeline(setup.plans[0], cmp.PipelineOptions{Depth: 4, Batches: 4})
	if err != nil {
		return err
	}
	if !r.checkPipeline("alexnet reference pass", ref, 4) {
		return fmt.Errorf("alexnet reference pass: %v", r.failures)
	}
	r.set("sim_inf_per_mcycle", ref.ThroughputPerMCycle)
	runtime.GC()

	if !r.traced {
		probeStart := probeMS()
		h0 := snapHost()
		st := w.loop(r.dur, nil)
		h1 := snapHost()
		r.notes["host.probe_ms.start"] = probeStart
		r.notes["host.probe_ms.end"] = probeMS()
		r.notes["host.steal_share"] = h0.to(h1).stealShare
		r.count(st)
		r.setLoop(st)
		r.set("rss_peak_mb", rssPeakMB())
		return nil
	}

	r.set("host.probe_ms.start", probeMS())
	h0 := snapHost()
	plain := w.loop(r.dur/2, nil)
	h1 := snapHost()
	var tally simTally
	traced := w.loop(r.dur/2, &tally)
	r.count(plain)
	r.count(traced)
	r.setHost(h0.to(h1), plain.ok)
	r.setLoadgen(plain)
	r.setTraceOverhead(plain, traced)
	r.setSimTally(tally)
	run := tally.wall.total()
	if run > traced.wall || float64(run) < 0.9*float64(traced.wall) {
		r.fail("RunPipeline time %v is not 90-100%% of the loop's %v", run, traced.wall)
	}
	r.set("cmp.wall_share", share(float64(run), float64(traced.wall)))
	r.setSimCounts(ref)

	t0 := time.Now()
	mask.Quantize(setup.ds, nn.CalibConfig{Method: fixed.CalibMaxAbs})
	r.set("core.quantize_s", time.Since(t0).Seconds())
	r.probeNN(mask, setup.ds.TestX)
	r.probePlan(netzoo.AlexNet(), paperCores)
	r.set("core.train_s.baseline", median(trainS[core.Baseline]))
	r.set("core.train_s.ssmask", median(trainS[core.SSMask]))
	r.set("core.train_share", median(trainShares))
	// No serving happens on paper-sim: the serve layer did no work.
	for _, name := range serveLayerMetrics {
		r.set(name, 0)
	}
	r.set("host.probe_ms.end", probeMS())
	return nil
}

package main

import (
	"time"

	"learn2scale/internal/cmp"
	"learn2scale/internal/core"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/partition"
	"learn2scale/internal/tensor"
)

// Per-layer probes of the traced run. Each times public calls of one
// layer from outside, after the measured windows, on the workload's own
// models.

// forwardReps is how many forward passes each nn probe times.
const forwardReps = 200

// probeNN times whole-network forward passes of tm at float32 and int16
// (tm must be quantized) and each float32 synaptic layer, reporting
// medians in microseconds.
func (r *run) probeNN(tm *core.TrainedModel, in []*tensor.Tensor) {
	var f32, i16 []float64
	for i := 0; i < forwardReps; i++ {
		x := in[i%len(in)]
		t0 := time.Now()
		tm.Net.Forward(x, false)
		t1 := time.Now()
		tm.QNet.Forward(x)
		f32 = append(f32, us(t1.Sub(t0)))
		i16 = append(i16, us(time.Since(t1)))
	}
	r.set("nn.forward_us.float32", median(f32))
	r.set("nn.forward_us.int16", median(i16))

	perLayer := map[string][]float64{}
	for i := 0; i < forwardReps; i++ {
		x := in[i%len(in)]
		for _, l := range tm.Net.Layers {
			t0 := time.Now()
			x = l.Forward(x, false)
			perLayer[l.Name()] = append(perLayer[l.Name()], us(time.Since(t0)))
		}
	}
	var macs int64
	for _, sh := range tm.Spec.SynapticShapes() {
		macs += sh.MACs()
	}
	for _, name := range []string{"ip1", "ip2", "ip3"} {
		r.set("nn.layer_us."+name+".float32", median(perLayer[name]))
	}
	r.set("nn.macs_per_inf", float64(macs))
}

// probePlan times building the workload's partition plan.
func (r *run) probePlan(spec netzoo.NetSpec, cores int) {
	var ts []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		partition.NewPlan(spec, cores)
		ts = append(ts, millis(time.Since(t0)))
	}
	r.set("core.plan_ms", median(ts))
}

// simTally accumulates host time against simulated work over a set of
// direct RunPipeline calls.
type simTally struct {
	wall      samples
	cycles    int64
	traversal int64
}

func (t *simTally) add(d time.Duration, rep cmp.PipelineReport) {
	t.wall = append(t.wall, d)
	t.cycles += rep.TotalCycles
	t.traversal += rep.NoC.LinkTraversals
}

func (r *run) setSimTally(t simTally) {
	total := float64(t.wall.total())
	r.set("cmp.run_ms.p50", t.wall.ms(50))
	r.set("cmp.host_ns_per_sim_cycle", share(total, float64(t.cycles)))
	r.set("cmp.host_ns_per_link_traversal", share(total, float64(t.traversal)))
}

// setSimCounts reports the deterministic simulated counts of the
// workload's reference pipeline pass.
func (r *run) setSimCounts(rep cmp.PipelineReport) {
	var occ float64
	for _, st := range rep.Stages {
		occ += st.Occupancy
	}
	r.set("cmp.sim_cycles_per_op", float64(rep.TotalCycles))
	r.set("cmp.compute_cycles", float64(rep.Inference.ComputeCycles))
	r.set("cmp.comm_cycles", float64(rep.Inference.CommCycles))
	r.set("cmp.noc_flits", float64(rep.NoC.Flits))
	r.set("cmp.link_traversals", float64(rep.NoC.LinkTraversals))
	r.set("cmp.mean_packet_latency_cycles", rep.NoC.AvgLatency())
	r.set("cmp.stage_occupancy.mean", share(occ, float64(len(rep.Stages))))
	r.set("cmp.energy_uj_per_inf", (rep.NoCEnergy.Total()+rep.ComputeEnergyPJ)/1e6/float64(rep.Batches))
}

// checkPipeline checks the invariants every pipelined report must hold:
// one completion per batch, no lost transfers, and fill + steady +
// drain telescoping to the total.
func (r *run) checkPipeline(what string, rep cmp.PipelineReport, batches int) bool {
	switch {
	case len(rep.Completions) != batches:
		r.fail("%s: %d completions for %d batches", what, len(rep.Completions), batches)
	case len(rep.Failed) != 0:
		r.fail("%s: %d lost transfers on a fault-free mesh", what, len(rep.Failed))
	case rep.TotalCycles <= 0 || rep.TotalCycles != rep.Completions[batches-1]:
		r.fail("%s: total %d cycles, last completion %d", what, rep.TotalCycles, rep.Completions[batches-1])
	case rep.FillCycles+rep.SteadyCycles+rep.DrainCycles != rep.TotalCycles:
		r.fail("%s: fill %d + steady %d + drain %d != total %d", what,
			rep.FillCycles, rep.SteadyCycles, rep.DrainCycles, rep.TotalCycles)
	default:
		return true
	}
	return false
}

// pipelineDepth clamps a configured depth the way the server does: a
// pipeline has at most one stage per synaptic layer and per core.
func pipelineDepth(depth int, p *partition.Plan) int {
	if l := len(p.Layers); depth > l {
		depth = l
	}
	if depth > p.Cores {
		depth = p.Cores
	}
	return depth
}

// barrierSpeedup is the simulated single-inference cycles of base over
// those of proposal: float32 barrier runs at identity placement, as
// Table IV reports them.
func barrierSpeedup(base, proposal *partition.Plan) (float64, error) {
	sys, err := cmp.New(cmp.DefaultConfig(base.Cores))
	if err != nil {
		return 0, err
	}
	b, err := sys.RunPlanPlaced(base, nil)
	if err != nil {
		return 0, err
	}
	p, err := sys.RunPlanPlaced(proposal, nil)
	if err != nil {
		return 0, err
	}
	return share(float64(b.TotalCycles()), float64(p.TotalCycles())), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

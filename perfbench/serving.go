package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"learn2scale/internal/cmp"
	"learn2scale/internal/core"
	"learn2scale/internal/data"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/serve"
)

// The serve workloads run the serving layer in process over the MLP
// model pool its own tests use: four schemes at float32 and int16, each
// partitioned over four cores.
const (
	serveCores = 4
	serveDepth = 4
	// hotClients is serve-hot's closed-loop concurrency; it equals the
	// server's MaxBatch so a full batch closes without waiting out the
	// batching window.
	hotClients = 8
	hotWindow  = 2 * time.Millisecond
	hotLimit   = 25 * time.Millisecond
	// mixedRate is serve-mixed's fixed open-loop arrival rate, about a
	// fifth of batch-1 capacity on one processor of a 2-vCPU host. At
	// 500 req/s (about two fifths) a third of the requests wait behind
	// another, which puts each key's median among the slow ones and
	// spread it half again as much across runs.
	mixedRate = 250.0
	// mixedLimit is four times the p99 on a quiet host: a request
	// misses it when the server falls behind, not when the hypervisor
	// takes the processor for a few milliseconds.
	mixedLimit = 20 * time.Millisecond
	// serveSetupReps builds the pool five times: one build takes under
	// two seconds, which a neighbour's burst of load can double.
	serveSetupReps = 5
	// queueCap is large enough that a stall of a second at mixedRate
	// still queues instead of refusing.
	queueCap = 1024
)

var (
	serveSchemes    = []core.Scheme{core.Baseline, core.StructureLevel, core.SS, core.SSMask}
	servePrecisions = []fixed.Precision{fixed.Float32, fixed.Int16}
	hotKey          = serve.ModelKey{Scheme: core.SSMask, Precision: fixed.Float32}
)

// serveNet is the pool's network and training recipe: the serving
// layer's test fixture (MLP, 80/40 synthetic MNIST samples, 3 epochs).
func serveNet() core.SparseNetConfig {
	sgd := nn.DefaultSGD()
	sgd.Epochs = 3
	sgd.LearningRate = 0.03
	return core.SparseNetConfig{
		Name: "MLP", Spec: netzoo.MLP(),
		Data:   func(seed int64) *data.Dataset { return data.MNISTLike(80, 40, seed) },
		Lambda: 0.03, ThresholdRel: 0.3, SGD: sgd, Seed: 3,
	}
}

func serveConfig(hot bool) serve.Config {
	cfg := serve.Config{QueueCap: queueCap, MaxBatch: hotClients, Depth: serveDepth}
	if hot {
		cfg.Window = hotWindow
	}
	return cfg
}

// servePool is one build of a serve workload: the trained pool and a
// running server over it.
type servePool struct {
	ds     *data.Dataset
	models map[serve.ModelKey]*serve.Model
	trainS map[core.Scheme]time.Duration
	quantS time.Duration
	srv    *serve.Server
}

// buildServePool trains and wraps the pool the way serve.NewModels
// does, timing core.Train and Quantize separately, then starts a server.
func buildServePool(cfg serve.Config) (*servePool, error) {
	net := serveNet()
	p := &servePool{
		ds:     net.Data(net.Seed),
		models: map[serve.ModelKey]*serve.Model{},
		trainS: map[core.Scheme]time.Duration{},
	}
	var all []*serve.Model
	for _, scheme := range serveSchemes {
		opt := core.TrainOptions{
			Cores: serveCores, Lambda: net.Lambda, ThresholdRel: net.ThresholdRel,
			SGD: net.SGD, Seed: net.Seed,
		}
		t0 := time.Now()
		tm, err := core.Train(scheme, net.Spec, p.ds, opt)
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", serve.ModelName(scheme), err)
		}
		p.trainS[scheme] = time.Since(t0)
		for _, prec := range servePrecisions {
			if prec == fixed.Int16 {
				t0 := time.Now()
				tm.Quantize(p.ds, nn.CalibConfig{Method: fixed.CalibMaxAbs})
				p.quantS += time.Since(t0)
			}
			m, err := serve.NewModel(cfg, tm, prec, p.ds.TestX)
			if err != nil {
				return nil, err
			}
			p.models[m.Key] = m
			all = append(all, m)
		}
	}
	srv, err := serve.New(cfg, all)
	if err != nil {
		return nil, err
	}
	p.srv = srv
	return p, nil
}

// identity names what a build trained: each model's accuracy and its
// logits on the first test sample.
func (p *servePool) identity() string {
	var b strings.Builder
	for _, key := range p.srv.Keys() {
		m := p.models[key]
		fmt.Fprintf(&b, "%s %v %v;", key, m.TM.Accuracy, m.Infer(m.Samples[0], nil))
	}
	return b.String()
}

// serveReq is one generated request: which model, which test sample.
type serveReq struct {
	key    serve.ModelKey
	sample int
}

// serveStream generates n requests from seed: keys round-robin over
// keys, samples drawn uniformly from nSamples.
func serveStream(seed int64, keys []serve.ModelKey, nSamples, n int) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	out := make([]serveReq, n)
	for i := range out {
		out[i] = serveReq{key: keys[i%len(keys)], sample: rng.Intn(nSamples)}
	}
	return out
}

// arrivals generates n Poisson arrival offsets at rate per second from
// seed.
func arrivals(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// serveRun holds a serve workload's references and collected traces.
type serveRun struct {
	r      *run
	hot    bool
	pool   *servePool
	stream []serveReq
	keyIdx map[serve.ModelKey]int // each key's position in the workload's keys

	// logits[key][sample] is Model.Infer's answer, computed before any
	// timing; every served answer must match it bit for bit.
	logits map[serve.ModelKey][][]float32

	mu   sync.Mutex
	sims map[simKey]cmp.PipelineReport // direct RunPipeline per (key, batch size)
	// traces collects the traced window's request traces.
	traces []serve.ReqTrace
}

type simKey struct {
	key serve.ModelKey
	k   int
}

// simRef returns the direct RunPipeline report the server's pass over a
// group of k requests for key must reproduce.
func (w *serveRun) simRef(key serve.ModelKey, k int) (cmp.PipelineReport, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if rep, ok := w.sims[simKey{key, k}]; ok {
		return rep, nil
	}
	rep, err := refPipeline(w.pool.models[key], k)
	if err != nil {
		return rep, err
	}
	w.sims[simKey{key, k}] = rep
	return rep, nil
}

// refPipeline runs m's plan through a fresh simulator configured like
// the model's serving fleet, at the server's depth with k batches.
func refPipeline(m *serve.Model, k int) (cmp.PipelineReport, error) {
	cfg := cmp.DefaultConfig(m.TM.Plan.Cores)
	cfg.Core.Precision = m.Key.Precision
	sys, err := cmp.New(cfg)
	if err != nil {
		return cmp.PipelineReport{}, err
	}
	return sys.RunPipeline(m.TM.Plan, cmp.PipelineOptions{
		Depth:   pipelineDepth(serveDepth, m.TM.Plan),
		Batches: k,
	})
}

// op sends request i of the stream and checks the answer.
func (w *serveRun) op(i int, traced bool) bool {
	req := w.stream[i%len(w.stream)]
	in := w.pool.models[req.key].Samples[req.sample]
	var (
		resp *serve.Response
		err  error
	)
	if traced {
		resp, err = w.pool.srv.SubmitTraced(context.Background(), req.key, in)
	} else {
		resp, err = w.pool.srv.Submit(context.Background(), req.key, in)
	}
	return w.check(req, resp, err)
}

// check verifies one served answer: logits bit-identical to the
// precomputed reference, simulated completion equal to a direct
// RunPipeline of the same group size (and slot, when traced), batch-1
// groups on serve-mixed, and phases that telescope to the traced total.
func (w *serveRun) check(req serveReq, resp *serve.Response, err error) bool {
	if err != nil {
		w.r.fail("%s sample %d: %v", req.key, req.sample, err)
		return false
	}
	if resp.Model != serve.ModelName(req.key.Scheme) || resp.Precision != req.key.Precision.String() {
		w.r.fail("%s sample %d: answered by %s/%s", req.key, req.sample, resp.Model, resp.Precision)
		return false
	}
	if !sameBits(resp.Logits, w.logits[req.key][req.sample]) {
		w.r.fail("%s sample %d: logits differ from Model.Infer", req.key, req.sample)
		return false
	}
	if !w.hot && resp.BatchSize != 1 {
		w.r.fail("%s sample %d: batch of %d with batching off", req.key, req.sample, resp.BatchSize)
		return false
	}
	ref, err := w.simRef(req.key, resp.BatchSize)
	if err != nil {
		w.r.fail("%s reference pass of %d: %v", req.key, resp.BatchSize, err)
		return false
	}
	if tr := resp.Trace; tr != nil {
		if tr.Slot < 0 || tr.Slot >= len(ref.Completions) || ref.Completions[tr.Slot] != resp.SimCycles {
			w.r.fail("%s slot %d of %d: %d sim cycles, direct RunPipeline says otherwise", req.key, tr.Slot, resp.BatchSize, resp.SimCycles)
			return false
		}
		var sum int64
		for _, d := range tr.Phases() {
			sum += d
		}
		if sum != tr.TotalNS {
			w.r.fail("%s request %d: phases sum to %d ns, total %d ns", req.key, tr.ID, sum, tr.TotalNS)
			return false
		}
		w.mu.Lock()
		w.traces = append(w.traces, *tr)
		w.mu.Unlock()
		return true
	}
	for _, c := range ref.Completions {
		if c == resp.SimCycles {
			return true
		}
	}
	w.r.fail("%s batch of %d: %d sim cycles matches no slot of the direct RunPipeline", req.key, resp.BatchSize, resp.SimCycles)
	return false
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// keyClass is request i's traffic class: its key's position in the
// workload's key list.
func (w *serveRun) keyClass(i int) int {
	return w.keyIdx[w.stream[i%len(w.stream)].key]
}

// loop runs the workload's traffic for dur: serve-hot is a closed loop
// of hotClients, serve-mixed an open loop on the arrival schedule due.
func (w *serveRun) loop(dur time.Duration, traced bool, due []time.Duration) loopStats {
	if w.hot {
		return closedLoop(hotClients, dur, hotLimit, func(i int) bool { return w.op(i, traced) })
	}
	return openLoop(due, dur, mixedLimit, w.keyClass, func(i int, done func(bool)) {
		go func() { done(w.op(i, traced)) }()
	})
}

// runServe runs serve-hot (hot) or serve-mixed.
func runServe(r *run, hot bool) error {
	cfg := serveConfig(hot)
	trainS := map[core.Scheme][]float64{}
	var quantS, trainShares []float64
	pool, err := medianSetup(r, serveSetupReps, func() (*servePool, error) {
		t0 := time.Now()
		p, err := buildServePool(cfg)
		if err == nil {
			trainShares = append(trainShares, noteTraining(trainS, p.trainS, time.Since(t0)))
			quantS = append(quantS, p.quantS.Seconds())
		}
		return p, err
	}, (*servePool).identity, func(p *servePool) { p.srv.Close() })
	if err != nil {
		return err
	}
	defer pool.srv.Close()

	keys := []serve.ModelKey{hotKey}
	if !hot {
		keys = pool.srv.Keys()
	}
	nSamples := len(pool.ds.TestX)
	// Enough requests for any rate this host reaches; the closed loop
	// wraps around the stream.
	w := &serveRun{
		r: r, hot: hot, pool: pool,
		stream: serveStream(r.seed, keys, nSamples, 1<<16),
		logits: map[serve.ModelKey][][]float32{},
		sims:   map[simKey]cmp.PipelineReport{},
		keyIdx: map[serve.ModelKey]int{},
	}
	for c, key := range keys {
		w.keyIdx[key] = c
	}
	for key, m := range pool.models {
		for _, x := range m.Samples {
			w.logits[key] = append(w.logits[key], m.Infer(x, nil))
		}
	}
	// Reference passes for every group size the workload forms: up to
	// hotClients on serve-hot, 1 on serve-mixed.
	refK := 1
	if hot {
		refK = hotClients
	}
	for _, key := range keys {
		for k := 1; k <= refK; k++ {
			if _, err := w.simRef(key, k); err != nil {
				return fmt.Errorf("reference pass %s/%d: %w", key, k, err)
			}
		}
	}
	refPass, _ := w.simRef(hotKey, refK)
	if err := setServeSim(r, pool, refPass); err != nil {
		return err
	}
	mask := pool.models[hotKey]

	var due []time.Duration
	if !hot {
		due = arrivals(r.seed, mixedRate, int(mixedRate*(r.dur.Seconds()+5)))
	}
	r.count(w.loop(warmup, false, due))
	runtime.GC()

	if !r.traced {
		probeStart := probeMS()
		h0 := snapHost()
		st := w.loop(r.dur, false, due)
		h1 := snapHost()
		r.notes["host.probe_ms.start"] = probeStart
		r.notes["host.probe_ms.end"] = probeMS()
		r.notes["host.steal_share"] = h0.to(h1).stealShare
		r.count(st)
		r.setLoop(st)
		r.set("rss_peak_mb", rssPeakMB())
		return nil
	}

	// Traced run: an untraced half, then a traced half, then probes.
	r.set("host.probe_ms.start", probeMS())
	s0, h0 := pool.srv.Stats(), snapHost()
	plain := w.loop(r.dur/2, false, due)
	s1, h1 := pool.srv.Stats(), snapHost()
	runtime.GC()
	traced := w.loop(r.dur/2, true, due)
	r.count(plain)
	r.count(traced)
	d := h0.to(h1)
	r.setHost(d, plain.ok)
	r.setLoadgen(plain)
	r.setTraceOverhead(plain, traced)
	r.set("serve.allocs_per_req", share(float64(d.mallocs), float64(plain.attempted)))
	r.set("serve.alloc_bytes_per_req", share(float64(d.allocBytes), float64(plain.attempted)))
	r.set("serve.batch_size.mean", share(float64(s1.Responded-s0.Responded), float64(s1.Batches-s0.Batches)))
	r.set("serve.batch_size.max", float64(s1.BatchMax))
	r.set("serve.rejected_share", share(float64(s1.Rejected-s0.Rejected), float64(plain.attempted)))
	w.setPhases(traced.wall)

	probe := simTally{}
	for i := 0; i < 16; i++ {
		key := keys[i%len(keys)]
		t0 := time.Now()
		rep, err := refPipeline(pool.models[key], refK)
		if err != nil {
			return err
		}
		probe.add(time.Since(t0), rep)
	}
	r.setSimTally(probe)
	r.setSimCounts(refPass)
	r.probeNN(mask.TM, pool.ds.TestX)
	r.probePlan(mask.TM.Spec, serveCores)
	r.set("core.train_s.baseline", median(trainS[core.Baseline]))
	r.set("core.train_s.ssmask", median(trainS[core.SSMask]))
	r.set("core.quantize_s", median(quantS))
	r.set("core.train_share", median(trainShares))
	r.set("host.probe_ms.end", probeMS())
	return nil
}

// setServeSim reports the pool's deterministic simulated metrics: the
// throughput of the workload's reference pass ref (ssmask/float32 at the
// server's depth), and the SS_Mask speedup and accuracy against
// Baseline.
func setServeSim(r *run, pool *servePool, ref cmp.PipelineReport) error {
	if !r.checkPipeline("reference pass", ref, ref.Batches) {
		return fmt.Errorf("reference pass: %v", r.failures)
	}
	mask := pool.models[hotKey]
	base := pool.models[serve.ModelKey{Scheme: core.Baseline, Precision: fixed.Float32}]
	sp, err := barrierSpeedup(base.TM.Plan, mask.TM.Plan)
	if err != nil {
		return err
	}
	r.set("sim_inf_per_mcycle", ref.ThroughputPerMCycle)
	r.set("ssmask_speedup", sp)
	r.set("ssmask_accuracy", mask.TM.Accuracy)
	return nil
}

// setPhases reports the traced window's per-phase medians and how the
// single dispatcher spent the window.
func (w *serveRun) setPhases(wall time.Duration) {
	var queue, batch, sim, fwd samples
	type span struct{ sim, fwd, respond int64 }
	perBatch := map[int64]span{}
	for _, tr := range w.traces {
		queue = append(queue, time.Duration(tr.QueueNS))
		batch = append(batch, time.Duration(tr.BatchNS))
		sim = append(sim, time.Duration(tr.SimNS))
		fwd = append(fwd, time.Duration(tr.DequantNS))
		// The last slot of a group ends the dispatcher's work on it.
		b := perBatch[tr.Batch]
		b.sim = tr.SimNS
		if tr.DequantNS > b.fwd {
			b.fwd, b.respond = tr.DequantNS, tr.RespondNS
		}
		perBatch[tr.Batch] = b
	}
	var busy, simSum, fwdSum int64
	for _, b := range perBatch {
		busy += b.sim + b.fwd + b.respond
		simSum += b.sim
		fwdSum += b.fwd
	}
	r := w.r
	r.set("serve.queue_ms.p50", queue.ms(50))
	r.set("serve.queue_ms.p99", queue.ms(99))
	r.set("serve.batch_wait_ms.p50", batch.ms(50))
	r.set("serve.sim_ms.p50", sim.ms(50))
	r.set("serve.forward_ms.p50", fwd.ms(50))
	r.set("serve.busy_share", share(float64(busy), float64(wall)))
	r.set("serve.forward_share", share(float64(fwdSum), float64(wall)))
	r.set("cmp.wall_share", share(float64(simSum), float64(wall)))
}

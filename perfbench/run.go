package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"learn2scale/internal/core"
)

// warmup runs the workload's own loop before any timing, so lazy
// set-up and first-touch costs stay out of the measured window.
const warmup = time.Second

// maxFailures bounds how many check failures a run keeps for its record.
const maxFailures = 20

// run is one benchmark invocation: its settings, the checks it made and
// the metrics it reports.
type run struct {
	workload string
	seed     int64
	dur      time.Duration // measured window (the traced run splits it)
	traced   bool

	mu        sync.Mutex
	failures  []string
	nFailures int
	attempted int
	failed    int
	metrics   map[string]float64
	notes     map[string]any // reference values and context for the run record
}

func newRun(workload string, seed int64, dur time.Duration, traced bool) *run {
	return &run{
		workload: workload, seed: seed, dur: dur, traced: traced,
		metrics: map[string]float64{}, notes: map[string]any{},
	}
}

// fail records a failed output check. Safe for concurrent use.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nFailures++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nFailures == 0
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// count adds a measured loop's operations to the run's totals.
func (r *run) count(st loopStats) {
	r.attempted += st.attempted
	r.failed += st.attempted - st.ok
}

// setLoop reports a measured loop's end-to-end metrics.
func (r *run) setLoop(st loopStats) {
	r.set("throughput_per_s", st.rate)
	r.set("latency_p50_ms", millis(st.p50))
	r.set("on_time_share", share(float64(st.onTime), float64(st.attempted)))
	r.set("success_rate", share(float64(st.ok), float64(st.attempted)))
}

// setHost reports the host metrics of a measured window.
func (r *run) setHost(d hostDelta, ops int) {
	r.set("host.cpu_ms_per_op", share(millis(d.cpu), float64(ops)))
	r.set("host.gc_pause_ms", millis(d.gcPause))
	r.set("host.steal_share", d.stealShare)
}

// setTraceOverhead compares the untraced and traced halves of a traced
// run.
func (r *run) setTraceOverhead(plain, traced loopStats) {
	r.set("trace.overhead_share", share(plain.rate-traced.rate, plain.rate))
	r.set("trace.latency_p50_delta_ms", millis(traced.p50-plain.p50))
	r.set("trace.throughput_delta_per_s", traced.rate-plain.rate)
}

// setLoadgen reports how well the generator kept its schedule.
func (r *run) setLoadgen(st loopStats) {
	r.set("loadgen.lag_ms.p99", st.lag.ms(99))
	onTime := 0
	for _, l := range st.lag {
		if l <= lagLimit {
			onTime++
		}
	}
	r.set("loadgen.sent_on_time_share", share(float64(onTime), float64(len(st.lag))))
	r.set("loadgen.latency_p99_ms", st.lat.ms(99))
}

// lagLimit is how late the generator may send and still count as on
// time.
const lagLimit = time.Millisecond

// noteTraining adds one build's per-scheme training times to times and
// returns training's share of the build's wall time.
func noteTraining(times map[core.Scheme][]float64, build map[core.Scheme]time.Duration, wall time.Duration) float64 {
	var train time.Duration
	for s, d := range build {
		times[s] = append(times[s], d.Seconds())
		train += d
	}
	return share(train.Seconds(), wall.Seconds())
}

// medianSetup runs build reps times and reports the median wall time as
// setup_s. Every build must have the same identity (the same
// trained models); all but the last are released before the next
// starts, and the last is returned with each build's layer timings.
func medianSetup[T any](r *run, reps int, build func() (T, error), identity func(T) string, release func(T)) (T, error) {
	var (
		last  T
		first string
		secs  []float64
	)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, fmt.Errorf("setup %d: %w", i, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if id := identity(v); i == 0 {
			first = id
		} else if id != first {
			r.fail("setup %d built different models: %s, first %s", i, id, first)
		}
		if i < reps-1 {
			release(v)
		}
		last = v
	}
	r.set("setup_s", median(secs))
	runtime.GC()
	return last, nil
}

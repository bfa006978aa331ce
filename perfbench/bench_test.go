package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"

	"learn2scale/internal/cmp"
	"learn2scale/internal/core"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/parallel"
	"learn2scale/internal/partition"
	"learn2scale/internal/serve"
)

func msSamples(vals ...int) samples {
	var s samples
	for _, v := range vals {
		s = append(s, time.Duration(v)*time.Millisecond)
	}
	return s
}

func rangeSamples(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = time.Duration(n-i) * time.Millisecond // descending: quantile must sort
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	s := msSamples(5, 1, 4, 2, 3)
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 3 * time.Millisecond}, {20, time.Millisecond}, {21, 2 * time.Millisecond}, {100, 5 * time.Millisecond}} {
		if got, _ := s.quantile(c.p); got != c.want {
			t.Errorf("p%v of 1..5 ms = %v, want %v", c.p, got, c.want)
		}
	}
	if _, ok := (samples{}).quantile(50); ok {
		t.Error("median of no samples reported")
	}
}

// p99 needs ten samples beyond it, so it is withheld below 1000
// samples; the median never is.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{10, false}, {999, false}, {1000, true}, {5000, true}} {
		s := rangeSamples(c.n)
		d, ok := s.quantile(99)
		if ok != c.ok {
			t.Errorf("p99 of %d samples reported = %v, want %v", c.n, ok, c.ok)
		}
		if got := s.ms(99); ok && got != millis(d) || !ok && got != 0 {
			t.Errorf("ms(99) of %d samples = %v", c.n, got)
		}
		if _, ok := s.quantile(50); !ok {
			t.Errorf("median of %d samples withheld", c.n)
		}
	}
	if d, _ := rangeSamples(1000).quantile(99); d != 990*time.Millisecond {
		t.Errorf("p99 of 1..1000 ms = %v, want 990ms", d)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

// A closed loop reports the rate and median latency of its fastest
// tenth of windows.
func TestClosedLoopFastWindows(t *testing.T) {
	st := loopStats{wall: 10*fastWindow + time.Millisecond}
	for w := 0; w < 10; w++ {
		n, lat := 10, 8*time.Millisecond // slow windows
		if w == 6 {
			n, lat = 20, 4*time.Millisecond
		}
		for i := 0; i < n; i++ {
			st.record(time.Duration(w)*fastWindow+time.Duration(i)*time.Millisecond, lat, true, time.Second)
		}
	}
	st.summarizeClosed()
	if want := 20 / fastWindow.Seconds(); st.rate != want {
		t.Errorf("rate = %v, want the fastest window's %v", st.rate, want)
	}
	if st.p50 != 4*time.Millisecond {
		t.Errorf("p50 = %v, want the fastest window's 4ms", st.p50)
	}
	short := loopStats{wall: 3 * fastWindow}
	short.record(0, time.Millisecond, true, time.Second)
	short.summarizeClosed()
	if short.rate != 1/short.wall.Seconds() || short.p50 != time.Millisecond {
		t.Errorf("short loop: rate %v p50 %v, want every completion", short.rate, short.p50)
	}
}

// An open loop reports the mean over its traffic classes of each
// class's median latency over the whole loop, and a rate over all of it.
func TestOpenLoopClassMedians(t *testing.T) {
	st := loopStats{wall: 20 * fastWindow}
	// Class 0 costs 1ms and class 1 3ms, round-robin, so the median of
	// the mixture would be either cost and the class medians' mean is
	// 2ms; a slow window (w == 7) moves neither class median.
	for w := 0; w < 20; w++ {
		for i := 0; i < 10; i++ {
			c := i % 2
			lat := time.Duration(1+2*c) * time.Millisecond
			if w == 7 {
				lat *= 5
			}
			st.record(time.Duration(w)*fastWindow, lat, true, time.Second)
			st.class = append(st.class, c)
		}
	}
	st.summarizeOpen()
	if want := 2 * time.Millisecond; st.p50 != want {
		t.Errorf("p50 = %v, want the class medians' mean %v", st.p50, want)
	}
	if want := 200 / st.wall.Seconds(); st.rate != want {
		t.Errorf("rate = %v, want %v", st.rate, want)
	}
	one := loopStats{wall: fastWindow}
	for _, ms := range []time.Duration{1, 2, 9} {
		one.record(0, ms*time.Millisecond, true, time.Second)
	}
	one.summarizeOpen()
	if one.p50 != 2*time.Millisecond {
		t.Errorf("unclassed loop: p50 %v, want the plain median 2ms", one.p50)
	}
}

// A 50 ms stall in the submitter is charged as latency to every request
// due during it, and shows as generator lag.
func TestOpenLoopChargesStall(t *testing.T) {
	const n = 200
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	const stallAt, stall = 50, 50 * time.Millisecond
	st := openLoop(due, time.Hour, 10*time.Millisecond, nil, func(i int, done func(bool)) {
		if i == stallAt {
			time.Sleep(stall)
		}
		done(true)
	})
	if st.attempted != n || st.ok != n {
		t.Fatalf("attempted %d ok %d, want %d", st.attempted, st.ok, n)
	}
	// Requests due at 50..99 ms are answered after the stall ends at
	// ≥100 ms; the first of them waited the whole stall.
	var late int
	var worst time.Duration
	for _, l := range st.lat {
		if l >= 5*time.Millisecond {
			late++
		}
		worst = max(worst, l)
	}
	if late < 40 {
		t.Errorf("%d requests charged ≥5ms, want the ~50 due during the stall", late)
	}
	if worst < stall {
		t.Errorf("worst latency %v, want ≥ the %v stall", worst, stall)
	}
	var maxLag time.Duration
	for _, l := range st.lag {
		maxLag = max(maxLag, l)
	}
	if maxLag < stall-5*time.Millisecond {
		t.Errorf("max generator lag %v, want about the %v stall", maxLag, stall)
	}
	if st.onTime > n-40 {
		t.Errorf("%d of %d on time within 10ms despite the stall", st.onTime, n)
	}
}

func TestStreamsFollowSeed(t *testing.T) {
	keys := []serve.ModelKey{{Scheme: core.Baseline, Precision: fixed.Float32}, {Scheme: core.SSMask, Precision: fixed.Int16}}
	a, b, c := serveStream(7, keys, 40, 500), serveStream(7, keys, 40, 500), serveStream(8, keys, 40, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different request streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same request stream")
	}
	if !reflect.DeepEqual(arrivals(7, 600, 500), arrivals(7, 600, 500)) {
		t.Error("same seed, different arrivals")
	}
	if reflect.DeepEqual(arrivals(7, 600, 500), arrivals(8, 600, 500)) {
		t.Error("different seeds, same arrivals")
	}

	layers := []int{8, 3, 3}
	calls := func(seed int64) []simCall {
		rng := rand.New(rand.NewSource(seed))
		var out []simCall
		for cycle := 0; cycle < 3; cycle++ {
			out = append(out, paperCalls(rng, cycle, layers)...)
		}
		return out
	}
	x, y, z := calls(7), calls(7), calls(8)
	if !reflect.DeepEqual(x, y) {
		t.Error("same seed, different simulation calls")
	}
	if reflect.DeepEqual(x, z) {
		t.Error("different seeds, same simulation calls")
	}
	seen := map[string]bool{}
	identity := 0
	for _, c := range x {
		key := fmtCall(c)
		if seen[key] {
			t.Errorf("call repeated: %s", key)
		}
		seen[key] = true
		if c.place == nil {
			identity++
			if c.depth != 1 || c.batches != 1 {
				t.Errorf("identity placement on %s", key)
			}
		}
		if c.depth > layers[c.plan] {
			t.Errorf("depth %d beyond %d layers", c.depth, layers[c.plan])
		}
	}
	if identity != len(layers) {
		t.Errorf("%d identity-placed calls, want one per plan", identity)
	}
}

func fmtCall(c simCall) string {
	b, _ := json.Marshal([]any{c.plan, c.depth, c.batches, c.place})
	return string(b)
}

// The deterministic metrics repeat exactly at one and two host workers.
func TestDeterministicMetricsAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the serve pool twice")
	}
	measure := func(workers int) map[string]float64 {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		r := newRun("test", 1, time.Second, true)
		pool, err := buildServePool(serveConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		defer pool.srv.Close()
		ref, err := refPipeline(pool.models[hotKey], hotClients)
		if err != nil {
			t.Fatal(err)
		}
		if err := setServeSim(r, pool, ref); err != nil {
			t.Fatal(err)
		}
		r.setSimCounts(ref)
		sys, err := cmp.New(cmp.DefaultConfig(paperCores))
		if err != nil {
			t.Fatal(err)
		}
		alex, err := sys.RunPipeline(partition.NewPlan(netzoo.AlexNet(), paperCores), cmp.PipelineOptions{Depth: 4, Batches: 4})
		if err != nil {
			t.Fatal(err)
		}
		r.set("alexnet.sim_inf_per_mcycle", alex.ThroughputPerMCycle)
		if !r.correct() {
			t.Fatalf("checks failed: %v", r.failures)
		}
		return r.metrics
	}
	one, two := measure(1), measure(2)
	if !reflect.DeepEqual(one, two) {
		t.Errorf("deterministic metrics differ between 1 and 2 workers:\n%v\n%v", one, two)
	}
	if len(one) < 10 {
		t.Errorf("only %d metrics compared", len(one))
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json keeps to the benchmark contract and names every metric
// the serve layer reports.
func TestBenchmarkSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("run_seconds %d, %d workloads", spec.RunSeconds, len(spec.Workloads))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !metricName.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if len(unit) == 0 || len(unit) > 16 || (better != "higher" && better != "lower") {
			t.Errorf("%s: unit %q better %q", name, unit, better)
		}
	}
	for _, w := range spec.Workloads {
		check(w.Name, "-", "lower")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	for _, name := range serveLayerMetrics {
		if !seen[name] {
			t.Errorf("serve layer metric %s is not declared", name)
		}
	}
}

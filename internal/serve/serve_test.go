package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"learn2scale/internal/core"
	"learn2scale/internal/fixed"
	"learn2scale/internal/obs"
)

func TestModelNameRoundTrip(t *testing.T) {
	for _, s := range fixtureSchemes {
		got, err := ParseModelName(ModelName(s))
		if err != nil || got != s {
			t.Fatalf("round trip %v: got %v, err %v", s, got, err)
		}
	}
	if _, err := ParseModelName("resnet"); err == nil {
		t.Fatal("ParseModelName accepted an unknown model")
	}
}

func TestDecodeRequest(t *testing.T) {
	three := 3
	cases := []struct {
		name string
		body string
		want *Request
	}{
		{"sample", `{"model":"ssmask","precision":"int16","sample":3}`,
			&Request{Model: "ssmask", Precision: "int16", Sample: &three}},
		{"input", `{"model":"baseline","input":[0.5,1]}`,
			&Request{Model: "baseline", Input: []float32{0.5, 1}}},
		{"deadline", `{"model":"ss","sample":3,"deadline_ms":50}`,
			&Request{Model: "ss", Sample: &three, DeadlineMS: 50}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := DecodeRequest([]byte(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if got.Model != c.want.Model || got.Precision != c.want.Precision ||
				(got.Sample == nil) != (c.want.Sample == nil) ||
				len(got.Input) != len(c.want.Input) || got.DeadlineMS != c.want.DeadlineMS {
				t.Fatalf("got %+v, want %+v", got, c.want)
			}
		})
	}

	bad := []struct{ name, body string }{
		{"empty", ``},
		{"garbage", `{`},
		{"unknown-field", `{"model":"ss","batch":4}`},
		{"unknown-model", `{"model":"resnet50"}`},
		{"unknown-precision", `{"model":"ss","precision":"int4"}`},
		{"both-inputs", `{"model":"ss","sample":1,"input":[1]}`},
		{"negative-sample", `{"model":"ss","sample":-2}`},
		{"negative-deadline", `{"model":"ss","sample":1,"deadline_ms":-5}`},
		{"nan-input", `{"model":"ss","input":[1e40]}`},
		{"trailing", `{"model":"ss","sample":1}{"model":"ss"}`},
		{"oversized", `{"model":"ss","input":[` + strings.Repeat("1,", maxRequestBytes/2) + `1]}`},
	}
	for _, c := range bad {
		t.Run("bad/"+c.name, func(t *testing.T) {
			if _, err := DecodeRequest([]byte(c.body)); err == nil {
				t.Fatalf("accepted %q", c.body)
			}
		})
	}
}

func TestSubmitAnswersMatchDirectForward(t *testing.T) {
	s := testServer(t, Config{Window: 0, Depth: 2})
	defer s.Close()
	for _, key := range s.Keys() {
		m := s.Model(key)
		in := m.Samples[1]
		resp, err := s.Submit(context.Background(), key, in)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		want := m.Infer(in, nil)
		if len(resp.Logits) != len(want) {
			t.Fatalf("%s: %d logits, want %d", key, len(resp.Logits), len(want))
		}
		for i := range want {
			if resp.Logits[i] != want[i] {
				t.Fatalf("%s: logit %d = %v, direct forward %v", key, i, resp.Logits[i], want[i])
			}
		}
		if resp.BatchSize != 1 || resp.SimCycles <= 0 {
			t.Fatalf("%s: batch=%d sim_cycles=%d", key, resp.BatchSize, resp.SimCycles)
		}
		if resp.Model != ModelName(key.Scheme) || resp.Precision != key.Precision.String() {
			t.Fatalf("%s: response labeled %s/%s", key, resp.Model, resp.Precision)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	key := ModelKey{Scheme: core.Baseline}
	if _, err := s.Submit(context.Background(), ModelKey{Scheme: 99}, s.Model(key).Samples[0]); err == nil {
		t.Fatal("submitted to a model that is not loaded")
	}
	short := s.Model(key).Samples[0]
	bad := short.Clone()
	bad.Data = bad.Data[:3]
	if _, err := s.Submit(context.Background(), key, bad); err == nil {
		t.Fatal("submitted an input of the wrong length")
	}
}

// stalledServer builds a server whose dispatcher has NOT started, so
// the admission queue jams deterministically. Call start() to begin
// dispatching (and Close to drain).
func stalledServer(t testing.TB, queueCap int) (s *Server, start func()) {
	t.Helper()
	m := testModels(t)[0]
	s = &Server{
		cfg:    Config{QueueCap: queueCap, MaxBatch: 4, Depth: 2},
		models: map[ModelKey]*Model{m.Key: m},
		keys:   []ModelKey{m.Key},
		queue:  make(chan *pending, queueCap),
		batchq: make(chan scriptBatch),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		start:  time.Now(),
	}
	return s, func() { go s.dispatch() }
}

func TestAdmissionOverflow(t *testing.T) {
	// Queue of 1 with no dispatcher draining it: the first request
	// occupies the only slot, the second MUST bounce.
	s, start := stalledServer(t, 1)
	key := s.Keys()[0]
	in := s.Model(key).Samples[0]

	first := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), key, in)
		first <- err
	}()
	waitStats(t, s, func(st Stats) bool { return st.Admitted == 1 })

	if _, err := s.Submit(context.Background(), key, in); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second submit: %v, want ErrOverloaded", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("stats.Rejected = %d, want 1", got)
	}
	// Start dispatching and drain: the queued request is answered.
	start()
	s.Close()
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained request never answered")
	}
	if st := s.Stats(); st.Responded != 1 {
		t.Fatalf("stats %+v, want exactly one response", st)
	}
}

func TestDeadlineExpiredBeforeDispatch(t *testing.T) {
	s := testServer(t, Config{Window: 0})
	defer s.Close()
	key := s.Keys()[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Submit(ctx, key, s.Model(key).Samples[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The slot is answered at dispatch; accounting still converges.
	waitStats(t, s, func(st Stats) bool { return st.Responded == st.Admitted })
}

func TestDrainRejectsNewAnswersQueued(t *testing.T) {
	s := testServer(t, Config{Window: 0})
	key := s.Keys()[0]
	in := s.Model(key).Samples[0]
	if _, err := s.Submit(context.Background(), key, in); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !s.Draining() {
		t.Fatal("Draining() false after Close")
	}
	if _, err := s.Submit(context.Background(), key, in); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Close submit: %v, want ErrDraining", err)
	}
	if _, err := s.RunScript(context.Background(), []ScriptStep{{Model: "baseline", Samples: []int{0}}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Close script: %v, want ErrDraining", err)
	}
	s.Close() // idempotent
}

func waitStats(t testing.TB, s *Server, ok func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(s.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHTTPHandler(t *testing.T) {
	s := testServer(t, Config{Window: time.Millisecond, Depth: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(nil))
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}

	resp, body := post(`{"model":"ssmask","precision":"int16","sample":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d %s", resp.StatusCode, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Model != "ssmask" || r.Precision != "int16" || len(r.Logits) == 0 {
		t.Fatalf("response %+v", r)
	}
	m := s.Model(ModelKey{Scheme: core.SSMask, Precision: fixed.Int16})
	want := m.Infer(m.Samples[2], nil)
	for i := range want {
		if r.Logits[i] != want[i] {
			t.Fatalf("logit %d = %v over HTTP, %v direct", i, r.Logits[i], want[i])
		}
	}

	// Raw input path.
	in := make([]string, m.InputLen())
	for i := range in {
		in[i] = "0.25"
	}
	resp, body = post(`{"model":"baseline","input":[` + strings.Join(in, ",") + `]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw input: %d %s", resp.StatusCode, body)
	}

	for _, c := range []struct {
		body string
		code int
	}{
		{`{"model":"nope","sample":1}`, http.StatusBadRequest},
		{`{"model":"ss","sample":1,"x":2}`, http.StatusBadRequest},
		{`{"model":"ss"}`, http.StatusBadRequest},                  // no sample or input
		{`{"model":"ss","sample":999999}`, http.StatusBadRequest},  // out of range
		{`{"model":"ss","input":[1,2,3]}`, http.StatusBadRequest},  // wrong length
	} {
		resp, _ := post(c.body)
		if resp.StatusCode != c.code {
			t.Fatalf("%s: status %d, want %d", c.body, resp.StatusCode, c.code)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/infer"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/infer: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	resp2, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models []map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(models) != len(s.Keys()) {
		t.Fatalf("/v1/models listed %d, want %d", len(models), len(s.Keys()))
	}

	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp3.StatusCode)
	}
}

func TestHTTPDrainingStatus(t *testing.T) {
	s := testServer(t, Config{Window: 0})
	ts := httptest.NewServer(s.Handler(nil))
	defer ts.Close()
	s.Close()
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"model":"baseline","sample":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining infer: %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", hz.StatusCode)
	}
}

func TestHTTPOverflowRetryAfter(t *testing.T) {
	// Stalled dispatcher: the first request holds the queue's only
	// slot, so the second deterministically bounces 429.
	s, start := stalledServer(t, 1)
	ts := httptest.NewServer(s.Handler(nil))
	defer ts.Close()

	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
			strings.NewReader(`{"model":"baseline","sample":0}`))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	waitStats(t, s, func(st Stats) bool { return st.Admitted == 1 })

	resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"model":"baseline","sample":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	start()
	s.Close()
	select {
	case code := <-firstDone:
		if code != http.StatusOK {
			t.Fatalf("queued request answered %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never answered")
	}
}

func TestScriptReadAndRun(t *testing.T) {
	steps, err := ReadScript(strings.NewReader(
		"# comment\n" +
			`{"model":"baseline","samples":[0,1,2]}` + "\n\n" +
			`{"model":"ssmask","precision":"int16","samples":[3]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || len(steps[0].Samples) != 3 || steps[1].Precision != "int16" {
		t.Fatalf("steps %+v", steps)
	}

	for _, bad := range []string{
		"",
		`{"model":"baseline"}`,
		`{"model":"baseline","samples":[1],"extra":2}`,
		"not json",
	} {
		if _, err := ReadScript(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadScript accepted %q", bad)
		}
	}

	s := testServer(t, Config{Depth: 2})
	defer s.Close()
	out, err := s.RunScript(context.Background(), steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0]) != 3 || len(out[1]) != 1 {
		t.Fatalf("script answered %d/%d steps", len(out), len(out[0]))
	}
	for _, r := range out[0] {
		if r.BatchSize != 3 {
			t.Fatalf("step 0 response batch=%d, want the whole step as one batch", r.BatchSize)
		}
	}
	// Completions are per-slot cycles of one pipelined pass:
	// monotonically increasing across the batch.
	if !(out[0][0].SimCycles < out[0][1].SimCycles && out[0][1].SimCycles < out[0][2].SimCycles) {
		t.Fatalf("completions not increasing: %d %d %d",
			out[0][0].SimCycles, out[0][1].SimCycles, out[0][2].SimCycles)
	}

	if _, err := s.RunScript(context.Background(), []ScriptStep{{Model: "baseline", Samples: []int{10000}}}); err == nil {
		t.Fatal("script accepted an out-of-range sample")
	}
	if _, err := s.RunScript(context.Background(), []ScriptStep{{Model: "nope", Samples: []int{0}}}); err == nil {
		t.Fatal("script accepted an unknown model")
	}
}

// windowTap records, at every serve.batch boundary, how many requests
// have been admitted so far. The boundary dawdles to widen the gap a
// racing admission of the next script step would land in.
type windowTap struct {
	mu         sync.Mutex
	requests   int64
	atBoundary []int64
}

func (w *windowTap) TapCounter(name string, _ obs.Class, delta int64) {
	if name == "serve.requests" {
		w.mu.Lock()
		w.requests += delta
		w.mu.Unlock()
	}
}
func (w *windowTap) TapGauge(string, obs.Class, float64, bool) {}
func (w *windowTap) TapHistogram(string, obs.Class, int64)     {}
func (w *windowTap) TapBoundary(label string, _ float64) {
	if label != "serve.batch" {
		return
	}
	time.Sleep(20 * time.Millisecond)
	w.mu.Lock()
	w.atBoundary = append(w.atBoundary, w.requests)
	w.mu.Unlock()
}

// TestScriptStepClosesItsWindow pins the script-mode telemetry
// contract: a step's batch window closes before the next step is
// admitted, so each serve.batch window holds exactly its own step's
// requests and the live stream is a pure function of the script.
func TestScriptStepClosesItsWindow(t *testing.T) {
	reg := obs.New()
	tap := &windowTap{}
	reg.SetTap(tap)
	s := testServer(t, Config{Depth: 2, Obs: reg})
	defer s.Close()
	steps := []ScriptStep{
		{Model: "baseline", Samples: []int{0, 1, 2}},
		{Model: "ssmask", Samples: []int{3}},
		{Model: "baseline", Samples: []int{4, 5}},
	}
	if _, err := s.RunScript(context.Background(), steps); err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if want := []int64{3, 4, 6}; fmt.Sprint(tap.atBoundary) != fmt.Sprint(want) {
		t.Fatalf("requests admitted at each batch boundary %v, want %v", tap.atBoundary, want)
	}
}

func TestDynamicBatchingCoalesces(t *testing.T) {
	// The window must only be long enough that goroutines spawned
	// together land inside it; 200ms has huge slack on a loaded CI
	// box and costs a single batch wait.
	s := testServer(t, Config{Window: 200 * time.Millisecond, MaxBatch: 8, Depth: 2})
	defer s.Close()
	key := s.Keys()[0]
	in := s.Model(key).Samples[0]

	const K = 4
	resps := make(chan *Response, K)
	for i := 0; i < K; i++ {
		go func() {
			r, err := s.Submit(context.Background(), key, in)
			if err != nil {
				t.Error(err)
			}
			resps <- r
		}()
	}
	maxBatch := 0
	for i := 0; i < K; i++ {
		r := <-resps
		if r != nil && r.BatchSize > maxBatch {
			maxBatch = r.BatchSize
		}
	}
	if maxBatch < 2 {
		t.Fatalf("largest batch %d; concurrent requests within the window never coalesced", maxBatch)
	}
	// recordBatch runs after the responses are sent; poll briefly.
	waitStats(t, s, func(st Stats) bool { return st.BatchMax >= 2 })
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"learn2scale/internal/timeline"
)

// traceScript is the fixed request stream the deterministic trace
// tests replay: five pre-composed batches across models and
// precisions, 12 requests total.
var traceScript = []ScriptStep{
	{Model: "baseline", Samples: []int{0, 1, 2}},
	{Model: "ssmask", Precision: "int16", Samples: []int{3, 4}},
	{Model: "ss", Samples: []int{5}},
	{Model: "ssmask", Precision: "int16", Samples: []int{6, 7, 8, 9}},
	{Model: "struct", Samples: []int{1, 3}},
}

func scriptRequests(steps []ScriptStep) int {
	n := 0
	for _, s := range steps {
		n += len(s.Samples)
	}
	return n
}

// TestServeTraceTelescoping drives concurrent traced requests through
// a wall-mode sink and asserts the tentpole contract on every record:
// the five phases are non-negative and sum EXACTLY to the total — the
// decomposition telescopes as an int64 identity, not approximately.
func TestServeTraceTelescoping(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTraceSink(&buf, TraceOptions{Keep: true, Tool: "test"})
	s := testServer(t, Config{
		QueueCap: 64,
		Window:   2 * time.Millisecond,
		MaxBatch: 8,
		Depth:    2,
		Trace:    sink,
	})

	models := testModels(t)
	const perModel = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	echoes := map[int64]*ReqTrace{}
	for _, m := range models[:3] {
		for i := 0; i < perModel; i++ {
			wg.Add(1)
			go func(key ModelKey, in int) {
				defer wg.Done()
				resp, err := s.SubmitTraced(context.Background(), key, testModels(t)[0].Samples[in])
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if resp.Trace == nil {
					t.Errorf("SubmitTraced response carries no trace echo")
					return
				}
				mu.Lock()
				echoes[resp.Trace.ID] = resp.Trace
				mu.Unlock()
			}(m.Key, i)
		}
	}
	wg.Wait()
	s.Close()
	if err := sink.Close(); err != nil {
		t.Fatalf("sink: %v", err)
	}

	for id, rt := range echoes {
		if rt.TotalNS <= 0 {
			t.Fatalf("req %d: total %dns", id, rt.TotalNS)
		}
		for ph, d := range rt.Phases() {
			if d < 0 {
				t.Fatalf("req %d: negative %s phase %dns", id, Phase(ph), d)
			}
		}
		if got := rt.QueueNS + rt.BatchNS + rt.SimNS + rt.DequantNS + rt.RespondNS; got != rt.TotalNS {
			t.Fatalf("req %d: phases sum %dns != total %dns", id, got, rt.TotalNS)
		}
	}

	// The JSONL round-trips through the validating reader (which
	// re-asserts telescoping and batch correlation on every line).
	log, err := ReadTraceLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTraceLog: %v", err)
	}
	if !log.Wall {
		t.Fatalf("wall-mode sink produced a stable log")
	}
	if len(log.Reqs) != len(echoes) {
		t.Fatalf("log carries %d requests, echoed %d", len(log.Reqs), len(echoes))
	}
	batches := map[int64]*BatchTrace{}
	for i := range log.Batches {
		batches[log.Batches[i].ID] = &log.Batches[i]
	}
	for i := range log.Reqs {
		r := &log.Reqs[i]
		b := batches[r.Batch]
		if b == nil {
			t.Fatalf("req %d references unknown batch %d", r.ID, r.Batch)
		}
		echo := echoes[r.ID]
		if echo == nil {
			t.Fatalf("req %d in log was never echoed", r.ID)
		}
		if echo.Batch != r.Batch || echo.Slot != r.Slot || echo.SimCycles != r.SimCycles || echo.Class != r.Class {
			t.Fatalf("req %d: echo %+v disagrees with record %+v", r.ID, echo, r)
		}
	}
	// Kept log matches the stream.
	kept := sink.Log()
	if len(kept.Reqs) != len(log.Reqs) || len(kept.Batches) != len(log.Batches) {
		t.Fatalf("kept log (%d reqs, %d batches) != stream (%d, %d)",
			len(kept.Reqs), len(kept.Batches), len(log.Reqs), len(log.Batches))
	}
}

// tracedModels re-wraps the shared fixture's trained models with a
// fresh config (cheap: no retraining, just new simulator pools) so a
// test can attach its own timeline sink.
func tracedModels(t testing.TB, cfg Config) []*Model {
	t.Helper()
	base := testModels(t)
	out := make([]*Model, len(base))
	for i, m := range base {
		nm, err := NewModel(cfg, m.TM, m.Key.Precision, m.Samples)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = nm
	}
	return out
}

// runTraceScript runs the fixed script on a fresh server wired to a
// trace sink (and optional timeline) and returns the JSONL bytes.
func runTraceScript(t *testing.T, opt TraceOptions, tl *timeline.Sink) ([]byte, *Server) {
	t.Helper()
	var buf bytes.Buffer
	sink := NewTraceSink(&buf, opt)
	cfg := Config{QueueCap: 32, Depth: 2, Trace: sink, Timeline: tl}
	var s *Server
	var err error
	if tl != nil {
		s, err = New(cfg, tracedModels(t, Config{Timeline: tl}))
	} else {
		s, err = New(cfg, testModels(t))
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunScript(context.Background(), traceScript); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), s
}

// TestServeTraceScriptStable asserts the determinism contract: in
// script mode a Stable sink's serve-trace records are byte-identical
// across independent runs (the determinism matrix's serve-script row
// extends this across -workers values), volatile wall-clock fields never leak, and the stable
// correlation skeleton (IDs, batches, sim cycles) is complete.
func TestServeTraceScriptStable(t *testing.T) {
	a, _ := runTraceScript(t, TraceOptions{Stable: true, Tool: "test"}, nil)
	b, _ := runTraceScript(t, TraceOptions{Stable: true, Tool: "test"}, nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("stable serve-trace records differ across runs:\n--- a\n%s\n--- b\n%s", a, b)
	}
	log, err := ReadTraceLog(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("ReadTraceLog: %v", err)
	}
	if log.Wall {
		t.Fatalf("stable sink wrote a wall-mode header")
	}
	if want := len(traceScript); len(log.Batches) != want {
		t.Fatalf("%d batch records, want %d", len(log.Batches), want)
	}
	if want := scriptRequests(traceScript); len(log.Reqs) != want {
		t.Fatalf("%d request records, want %d", len(log.Reqs), want)
	}
	for i := range log.Batches {
		b := &log.Batches[i]
		if b.ID != int64(i+1) {
			t.Fatalf("batch %d has ID %d", i, b.ID)
		}
		if b.StartNS != 0 || b.SimNS != 0 {
			t.Fatalf("batch %d leaked volatile fields: %+v", b.ID, b)
		}
		if i > 0 && b.SimBase != log.Batches[i-1].SimBase+log.Batches[i-1].SimTotal {
			t.Fatalf("batch %d sim_base %d does not stack on previous (%d+%d)",
				b.ID, b.SimBase, log.Batches[i-1].SimBase, log.Batches[i-1].SimTotal)
		}
	}
	seen := map[int64]bool{}
	for i := range log.Reqs {
		r := &log.Reqs[i]
		if r.TotalNS != 0 || r.AdmitNS != 0 || r.QueueNS+r.BatchNS+r.SimNS+r.DequantNS+r.RespondNS != 0 {
			t.Fatalf("req %d leaked volatile fields: %+v", r.ID, r)
		}
		if seen[r.ID] {
			t.Fatalf("req ID %d recorded twice", r.ID)
		}
		seen[r.ID] = true
	}
	for id := int64(1); id <= int64(scriptRequests(traceScript)); id++ {
		if !seen[id] {
			t.Fatalf("req ID %d missing from trace", id)
		}
	}
}

// TestServeTraceSampling asserts -trace-sample semantics: an unsampled
// ID is skipped, a sampled one recorded, and an explicitly traced
// request is always recorded regardless of the sample.
func TestServeTraceSampling(t *testing.T) {
	raw, _ := runTraceScript(t, TraceOptions{Stable: true, Sample: 3}, nil)
	log, err := ReadTraceLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(traceScript); len(log.Batches) != want {
		t.Fatalf("batch records are the spine and must not be sampled: %d != %d", len(log.Batches), want)
	}
	for i := range log.Reqs {
		if id := log.Reqs[i].ID; id%3 != 0 {
			t.Fatalf("req %d recorded outside sample every-3", id)
		}
	}
	want := scriptRequests(traceScript) / 3
	if len(log.Reqs) != want {
		t.Fatalf("%d sampled records, want %d", len(log.Reqs), want)
	}

	// An explicit ?trace=1 submit on a sink that samples nothing else.
	var buf bytes.Buffer
	sink := NewTraceSink(&buf, TraceOptions{Sample: 1 << 30})
	s := testServer(t, Config{QueueCap: 8, Trace: sink})
	m := testModels(t)[0]
	if _, err := s.SubmitTraced(context.Background(), m.Key, m.Samples[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), m.Key, m.Samples[1]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	sink.Close()
	log, err = ReadTraceLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Reqs) != 1 || log.Reqs[0].ID != 1 {
		t.Fatalf("traced request must bypass sampling; got %d records", len(log.Reqs))
	}
}

// TestServeTraceTimelineSections asserts the satellite: a served run
// with a timeline sink records batch-scoped sections — relabeled per
// batch, start cycles stacked on the cumulative sim-cycle cursor — and
// each batch record's section range partitions the sink.
func TestServeTraceTimelineSections(t *testing.T) {
	tl := timeline.NewSink()
	raw, _ := runTraceScript(t, TraceOptions{Stable: true}, tl)
	log, err := ReadTraceLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	secs := tl.Sections()
	if len(secs) == 0 {
		t.Fatal("served run recorded no timeline sections")
	}
	if tl.Events() == 0 {
		t.Fatal("served timeline has no events")
	}
	for i := range log.Batches {
		b := &log.Batches[i]
		if b.SecLo >= b.SecHi || b.SecHi > len(secs) {
			t.Fatalf("batch %d section range [%d,%d) invalid over %d sections", b.ID, b.SecLo, b.SecHi, len(secs))
		}
		if i > 0 && b.SecLo != log.Batches[i-1].SecHi {
			t.Fatalf("batch %d sections do not abut previous batch", b.ID)
		}
		prefix := fmt.Sprintf("serve.g%03d.", b.ID)
		for _, sec := range secs[b.SecLo:b.SecHi] {
			if !strings.HasPrefix(sec.Label, prefix) {
				t.Fatalf("batch %d section %q lacks prefix %q", b.ID, sec.Label, prefix)
			}
			if sec.Start < b.SimBase || sec.Start >= b.SimBase+b.SimTotal {
				t.Fatalf("batch %d section %q starts at %d outside [%d,%d)",
					b.ID, sec.Label, sec.Start, b.SimBase, b.SimBase+b.SimTotal)
			}
		}
	}
	// The stitched timeline renders and records like any other.
	var rec bytes.Buffer
	if err := tl.WriteRecord(&rec, "test", nil); err != nil {
		t.Fatalf("WriteRecord: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("empty timeline record")
	}
}

// TestAnalyzeTrace runs the l2s-trace -serve analysis over a wall-mode
// log: shares telescope to 1 per model, blame is a valid phase, and a
// stable-mode log is rejected with guidance.
func TestAnalyzeTrace(t *testing.T) {
	raw, _ := runTraceScript(t, TraceOptions{}, nil)
	log, err := ReadTraceLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeTrace(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Models) == 0 {
		t.Fatal("analysis found no models")
	}
	for _, st := range an.Models {
		if st.Requests == 0 || st.Batches == 0 {
			t.Fatalf("%s/%s: empty stats", st.Model, st.Precision)
		}
		var sum float64
		for _, ps := range st.Phases {
			if ps.Share < 0 || ps.Share > 1 {
				t.Fatalf("%s: share %f out of range", st.Model, ps.Share)
			}
			sum += ps.Share
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: phase shares sum to %f, want 1 (telescoping)", st.Model, sum)
		}
		if st.TailBlame < 0 || st.TailBlame >= NumPhases {
			t.Fatalf("%s: tail blame %d out of range", st.Model, st.TailBlame)
		}
	}
	var tbl bytes.Buffer
	an.WriteTable(&tbl)
	if !strings.Contains(tbl.String(), "tail_blame") {
		t.Fatalf("table missing header: %s", tbl.String())
	}

	stableRaw, _ := runTraceScript(t, TraceOptions{Stable: true}, nil)
	stableLog, err := ReadTraceLog(bytes.NewReader(stableRaw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeTrace(stableLog); err == nil || !strings.Contains(err.Error(), "-trace-wall") {
		t.Fatalf("stable log must be rejected with -trace-wall guidance, got %v", err)
	}
}

// TestWriteServePerfetto renders the combined export and checks the
// serve plane structurally: process metadata, one batch-window slice
// per batch, five tiling phase slices per request, and a queue-depth
// counter track.
func TestWriteServePerfetto(t *testing.T) {
	tl := timeline.NewSink()
	raw, _ := runTraceScript(t, TraceOptions{}, tl)
	log, err := ReadTraceLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WriteServePerfetto(&out, log, tl, "test", map[string]string{"net": "mlp"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var serveProc bool
	var counters, slices, flows int
	for _, e := range doc.TraceEvents {
		if e.Pid != timeline.PidServe {
			continue
		}
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			serveProc = true
		case e.Ph == "C":
			counters++
		case e.Ph == "X":
			slices++
		case e.Ph == "s" || e.Ph == "f":
			flows++
		}
	}
	if !serveProc {
		t.Fatal("serve plane process not declared")
	}
	if want := 2 * len(log.Reqs); counters != want {
		t.Fatalf("%d queue-depth counter events, want %d", counters, want)
	}
	if want := len(log.Batches) + int(NumPhases)*len(log.Reqs); slices != want {
		t.Fatalf("%d serve-plane slices, want %d", slices, want)
	}
	if flows == 0 {
		t.Fatal("no request→batch flow arrows")
	}

	// Stable logs cannot render a wall-clock plane.
	if err := WriteServePerfetto(&out, &TraceLog{Wall: false, Reqs: log.Reqs}, nil, "test", nil); err == nil {
		t.Fatal("stable log must be rejected")
	}
}

// TestHTTPTraceParam exercises ?trace=1 end to end: the response JSON
// carries the phase breakdown and it telescopes; without the flag no
// trace is echoed.
func TestHTTPTraceParam(t *testing.T) {
	s := testServer(t, Config{QueueCap: 8})
	defer s.Close()
	h := s.Handler(nil)

	post := func(url string) *Response {
		t.Helper()
		req := httptest.NewRequest("POST", url, strings.NewReader(`{"model":"ssmask","sample":0}`))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}

	if resp := post("/v1/infer"); resp.Trace != nil {
		t.Fatal("untraced request echoed a trace")
	}
	resp := post("/v1/infer?trace=1")
	if resp.Trace == nil {
		t.Fatal("?trace=1 response carries no trace")
	}
	rt := resp.Trace
	if sum := rt.QueueNS + rt.BatchNS + rt.SimNS + rt.DequantNS + rt.RespondNS; sum != rt.TotalNS || rt.TotalNS <= 0 {
		t.Fatalf("echoed trace does not telescope: sum %d total %d", sum, rt.TotalNS)
	}
	if rt.SimCycles != resp.SimCycles {
		t.Fatalf("trace sim_cycles %d != response %d", rt.SimCycles, resp.SimCycles)
	}
}

// TestReadTraceLogRejects feeds the validator corrupted artifacts; each
// must be refused.
func TestReadTraceLogRejects(t *testing.T) {
	head := `{"record":"l2s-serve-trace","version":1,"wall":true}`
	stableHead := `{"record":"l2s-serve-trace","version":1,"wall":false}`
	batch := `{"k":"batch","id":1,"model":"ss","precision":"float32","size":2,"depth":2,"sim_base":0,"sim_total":100,"t_start_ns":5,"sim_ns":5}`
	stableBatch := `{"k":"batch","id":1,"model":"ss","precision":"float32","size":2,"depth":2,"sim_base":0,"sim_total":100}`
	req1 := `{"k":"req","id":1,"batch":1,"slot":0,"batch_size":2,"model":"ss","precision":"float32","sim_base":0,"sim_cycles":5,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":5}`
	cases := map[string]string{
		"empty":            "",
		"garbage header":   `not json`,
		"bad header":       `{"record":"nope","version":1}`,
		"bad version":      `{"record":"l2s-serve-trace","version":99}`,
		"garbage line":     head + "\n" + `{not json`,
		"garbage batch":    head + "\n" + `{"k":"batch","id":"one"}`,
		"garbage req":      head + "\n" + batch + "\n" + `{"k":"req","id":"one"}`,
		"batch id zero":    head + "\n" + `{"k":"batch","id":0,"model":"ss","precision":"float32","size":2,"depth":2,"sim_total":100,"t_start_ns":5,"sim_ns":5}`,
		"batch size zero":  head + "\n" + `{"k":"batch","id":1,"model":"ss","precision":"float32","size":0,"depth":2,"sim_total":100,"t_start_ns":5,"sim_ns":5}`,
		"batch depth zero": head + "\n" + `{"k":"batch","id":1,"model":"ss","precision":"float32","size":2,"depth":0,"sim_total":100,"t_start_ns":5,"sim_ns":5}`,
		"batch no cycles":  head + "\n" + `{"k":"batch","id":1,"model":"ss","precision":"float32","size":2,"depth":2,"sim_total":0,"t_start_ns":5,"sim_ns":5}`,
		"sim_base backwards": head + "\n" + batch + "\n" +
			`{"k":"batch","id":2,"model":"ss","precision":"float32","size":2,"depth":2,"sim_base":-1,"sim_total":100,"t_start_ns":5,"sim_ns":5}`,
		"bad section range": head + "\n" + `{"k":"batch","id":1,"model":"ss","precision":"float32","size":2,"depth":2,"sim_total":100,"sec_lo":3,"sec_hi":1,"t_start_ns":5,"sim_ns":5}`,
		"req before batch":  head + "\n" + `{"k":"req","id":1,"batch":1,"slot":0,"batch_size":2,"model":"ss","precision":"float32","sim_cycles":5,"sim_total":100,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":5}`,
		"unknown kind":      head + "\n" + `{"k":"wat"}`,
		"broken telescoping": head + "\n" + batch + "\n" +
			`{"k":"req","id":1,"batch":1,"slot":0,"batch_size":2,"model":"ss","precision":"float32","sim_base":0,"sim_cycles":5,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":99}`,
		"slot out of range": head + "\n" + batch + "\n" +
			`{"k":"req","id":1,"batch":1,"slot":7,"batch_size":2,"model":"ss","precision":"float32","sim_base":0,"sim_cycles":5,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":5}`,
		"sim cycles beyond batch": head + "\n" + batch + "\n" +
			`{"k":"req","id":1,"batch":1,"slot":0,"batch_size":2,"model":"ss","precision":"float32","sim_base":0,"sim_cycles":999,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":5}`,
		"wrong batch ref": head + "\n" + batch + "\n" +
			`{"k":"req","id":1,"batch":9,"slot":0,"batch_size":2,"model":"ss","precision":"float32","sim_base":0,"sim_cycles":5,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":5}`,
		"req id not increasing": head + "\n" + batch + "\n" + req1 + "\n" +
			`{"k":"req","id":1,"batch":1,"slot":1,"batch_size":2,"model":"ss","precision":"float32","sim_base":0,"sim_cycles":5,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":5}`,
		"slot not increasing": head + "\n" + batch + "\n" + req1 + "\n" +
			`{"k":"req","id":2,"batch":1,"slot":0,"batch_size":2,"model":"ss","precision":"float32","sim_base":0,"sim_cycles":5,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":5}`,
		"batch_size mismatch": head + "\n" + batch + "\n" +
			`{"k":"req","id":1,"batch":1,"slot":0,"batch_size":3,"model":"ss","precision":"float32","sim_base":0,"sim_cycles":5,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":5}`,
		"model mismatch": head + "\n" + batch + "\n" +
			`{"k":"req","id":1,"batch":1,"slot":0,"batch_size":2,"model":"baseline","precision":"float32","sim_base":0,"sim_cycles":5,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":5}`,
		"sim_base mismatch": head + "\n" + batch + "\n" +
			`{"k":"req","id":1,"batch":1,"slot":0,"batch_size":2,"model":"ss","precision":"float32","sim_base":7,"sim_cycles":5,"queue_ns":1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":5}`,
		"negative phase": head + "\n" + batch + "\n" +
			`{"k":"req","id":1,"batch":1,"slot":0,"batch_size":2,"model":"ss","precision":"float32","sim_base":0,"sim_cycles":5,"queue_ns":-1,"batch_ns":1,"sim_ns":1,"dequant_ns":1,"respond_ns":1,"total_ns":3}`,
		"volatile leak into stable":     stableHead + "\n" + batch,
		"req volatile leak into stable": stableHead + "\n" + stableBatch + "\n" + req1,
		"wall mode without phases": head + "\n" + batch + "\n" +
			`{"k":"req","id":1,"batch":1,"slot":0,"batch_size":2,"model":"ss","precision":"float32","sim_base":0,"sim_cycles":5}`,
		"batch id not increasing": head + "\n" + batch + "\n" + batch,
	}
	for name, raw := range cases {
		if _, err := ReadTraceLog(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A reader that fails mid-stream surfaces the scanner error.
	broken := io.MultiReader(strings.NewReader(head+"\n"), iotest.ErrReader(errors.New("disk gone")))
	if _, err := ReadTraceLog(broken); err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Errorf("scanner error swallowed: %v", err)
	}
	// And the happy path for the same hand-built artifact.
	good := head + "\n" + batch + "\n" + req1
	if _, err := ReadTraceLog(strings.NewReader(good)); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
}

// TestTraceSinkEdges pins the small-surface contracts: a nil sink is a
// no-op, a writer-less Keep sink retains records without emitting
// JSONL, and the Phase stringer has a fallback for unknown values.
func TestTraceSinkEdges(t *testing.T) {
	if got := Phase(99).String(); got != "phase99" {
		t.Fatalf("Phase(99) = %q", got)
	}
	var nilSink *TraceSink
	if err := nilSink.Close(); err != nil {
		t.Fatalf("nil sink Close: %v", err)
	}
	if l := nilSink.Log(); l != nil {
		t.Fatalf("nil sink Log: %+v", l)
	}
	sink := NewTraceSink(nil, TraceOptions{Keep: true, Tool: "mem"})
	sink.observeBatch(BatchTrace{ID: 1, Model: "ss", Precision: "float32", Size: 1, Depth: 1, SimTotal: 10})
	sink.observeReq(ReqTrace{ID: 1, Model: "ss", Precision: "float32", Batch: 1, BatchSize: 1, SimCycles: 10})
	if err := sink.Close(); err != nil {
		t.Fatalf("keep-only sink Close: %v", err)
	}
	l := sink.Log()
	if len(l.Batches) != 1 || len(l.Reqs) != 1 || l.Tool != "mem" {
		t.Fatalf("keep-only sink retained %d batches, %d reqs (tool %q)", len(l.Batches), len(l.Reqs), l.Tool)
	}
}

// TestServeTraceNilZeroAlloc pins the disabled-tracer contract: with no
// sink configured the per-request hot path allocates nothing. The body
// is exactly BenchmarkServeTraceOverheadNil's — the dequeue-stamp
// guard, the trace branch and the respond accounting into an enabled
// registry — so the pair's zero-alloc side holds on every test run.
func TestServeTraceNilZeroAlloc(t *testing.T) {
	s, p := traceOverheadServer() // no trace sink: the disabled path
	if n := testing.AllocsPerRun(1000, func() {
		s.stampDequeued(p)
		if s.traceOn || p.traced {
			t.Fatal("trace misfired")
		}
		s.countResponded(traceOverheadLatency)
	}); n != 0 {
		t.Fatalf("disabled trace path allocates %.1f per request", n)
	}
	if !p.dequeued.IsZero() {
		t.Fatal("disabled stamp wrote a time")
	}
	if got := s.Stats().Responded; got != 1001 {
		t.Fatalf("respond accounting counted %d requests, want 1001", got)
	}
}

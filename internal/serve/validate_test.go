package serve

import (
	"strings"
	"testing"

	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
)

// TestValidateRecordRejects runs ValidateRecord on a minimal valid
// serving record and one corrupt variant per rule: each must be
// rejected with the rule's message.
func TestValidateRecordRejects(t *testing.T) {
	record := func(edit func(*obs.Snapshot)) obs.FlightRecord {
		s := obs.Snapshot{
			Counters:   []obs.CounterSnap{{Name: "serve.requests", Value: 3}, {Name: "serve.responses", Value: 3}},
			Gauges:     []obs.GaugeSnap{{Name: "sim.layer.ip1.compute_cycles", Value: 10}},
			Histograms: []obs.HistogramSnap{{Name: "serve.batch_size", Count: 2}},
		}
		if edit != nil {
			edit(&s)
		}
		return obs.FlightRecord{Tool: "test", Snapshot: s}
	}
	if err := ValidateRecord(record(nil)); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	for _, c := range []struct {
		name, want string
		edit       func(*obs.Snapshot)
	}{
		{"unbalanced requests/responses", "unbalanced serving accounting",
			func(s *obs.Snapshot) { s.Counters[1].Value = 2 }},
		{"missing counters", "missing serve.requests/serve.responses",
			func(s *obs.Snapshot) { s.Counters = s.Counters[:1] }},
		{"zero requests", "zero requests were served",
			func(s *obs.Snapshot) { s.Counters[0].Value, s.Counters[1].Value = 0, 0 }},
		{"missing serve.batch_size", "missing serve.batch_size",
			func(s *obs.Snapshot) { s.Histograms = nil }},
		{"no per-layer gauges", "no per-layer simulation gauges",
			func(s *obs.Snapshot) { s.Gauges = nil }},
		{"volatile serve.latency", "volatile serve.latency leaked",
			func(s *obs.Snapshot) { s.Histograms = append(s.Histograms, obs.HistogramSnap{Name: "serve.latency"}) }},
		{"volatile serve.queue_depth", "volatile serve.queue_depth leaked",
			func(s *obs.Snapshot) { s.Gauges = append(s.Gauges, obs.GaugeSnap{Name: "serve.queue_depth"}) }},
		{"volatile serve.rejected", "volatile serve.rejected leaked",
			func(s *obs.Snapshot) { s.Counters = append(s.Counters, obs.CounterSnap{Name: "serve.rejected"}) }},
	} {
		err := ValidateRecord(record(c.edit))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestValidateStreamRejects does the same for deterministic streams.
func TestValidateStreamRejects(t *testing.T) {
	valid := []live.WindowSnap{
		{Window: 0, Label: "serve.batch", Counters: []live.CounterWin{{Name: "serve.requests", Delta: 2, Total: 2}}},
		{Window: 1, Label: "final"},
	}
	if err := ValidateStream(valid); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	for _, c := range []struct {
		name, want string
		snaps      []live.WindowSnap
	}{
		{"no serve.batch window", "no serve.batch windows", valid[1:]},
		{"volatile serve.latency", "volatile serve.latency",
			append(valid[:1:1], live.WindowSnap{Window: 1, Label: "final", Hists: []live.HistWin{{Name: "serve.latency"}}})},
		{"volatile serve.queue_depth", "volatile serve.queue_depth",
			append(valid[:1:1], live.WindowSnap{Window: 1, Label: "final", Gauges: []live.GaugeWin{{Name: "serve.queue_depth"}}})},
		{"volatile serve.rejected", "volatile serve.rejected",
			append(valid[:1:1], live.WindowSnap{Window: 1, Label: "final", Counters: []live.CounterWin{{Name: "serve.rejected"}}})},
	} {
		err := ValidateStream(c.snaps)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

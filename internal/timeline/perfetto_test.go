package timeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// pfTrace mirrors the trace-event container for test-side parsing.
type pfTrace struct {
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
	TraceEvents     []pfEvent      `json:"traceEvents"`
}

func TestWritePerfettoStructure(t *testing.T) {
	sink := synthetic()
	var buf1, buf2 bytes.Buffer
	meta := map[string]string{"scheme": "ssmask"}
	if err := sink.WritePerfetto(&buf1, "unit", meta); err != nil {
		t.Fatal(err)
	}
	if err := sink.WritePerfetto(&buf2, "unit", meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("repeated WritePerfetto not byte-identical")
	}

	var tr pfTrace
	if err := json.Unmarshal(buf1.Bytes(), &tr); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if tr.OtherData["tool"] != "unit" || tr.OtherData["scheme"] != "ssmask" {
		t.Fatalf("otherData = %v", tr.OtherData)
	}

	if err := ValidatePerfetto(bytes.NewReader(buf1.Bytes())); err != nil {
		t.Fatal(err)
	}
	// synthetic's packet crosses 2 routers → one s + one f flow.
	// ValidatePerfetto also accepts counter ("C") events, which only the
	// serving export writes; a simulation-only export has none.
	var flows int
	for i, e := range tr.TraceEvents {
		switch e.Ph {
		case "s", "t", "f":
			flows++
		case "C":
			t.Fatalf("event %d: counter event in a simulation-only export", i)
		}
	}
	if flows != 2 {
		t.Fatalf("%d flow events, want 2", flows)
	}
}

func TestLinkTid(t *testing.T) {
	seen := map[int]bool{}
	for node := 0; node < 4; node++ {
		for dir := 1; dir <= 4; dir++ {
			tid := LinkTid(node, dir)
			if seen[tid] {
				t.Fatalf("LinkTid(%d,%d)=%d collides", node, dir, tid)
			}
			seen[tid] = true
		}
	}
}

// TestValidatePerfettoRejects feeds ValidatePerfetto a minimal valid
// trace and one corrupt variant per rule: each must be rejected with
// the rule's message, so a validator that always passes gets caught.
func TestValidatePerfettoRejects(t *testing.T) {
	meta := []string{
		`{"name":"process_name","ph":"M","pid":1,"tid":0}`,
		`{"name":"process_name","ph":"M","pid":2,"tid":0}`,
		`{"name":"process_name","ph":"M","pid":3,"tid":0}`,
	}
	data := []string{
		`{"name":"hop","ph":"X","ts":1,"dur":2,"pid":1,"tid":0}`,
		`{"ph":"s","ts":1,"pid":1,"tid":0,"id":"p1"}`,
		`{"ph":"B","ts":2,"pid":2,"tid":0}`,
		`{"ph":"C","ts":2,"pid":5,"tid":0}`,
		`{"ph":"i","ts":3,"pid":1,"tid":0}`,
		`{"ph":"E","ts":3,"pid":2,"tid":0}`,
	}
	trace := func(evs ...string) string {
		return `{"traceEvents":[` + strings.Join(evs, ",") + `]}`
	}
	valid := append(append([]string{}, meta...), data...)
	if err := ValidatePerfetto(strings.NewReader(trace(valid...))); err != nil {
		t.Fatalf("valid fixture rejected: %v", err)
	}
	with := func(i int, ev string) []string {
		out := append([]string{}, valid...)
		out[i] = ev
		return out
	}
	for _, c := range []struct {
		name, want string
		evs        []string
	}{
		{"metadata after data", "metadata after data",
			append(append([]string{}, valid...), `{"name":"thread_name","ph":"M","pid":1,"tid":0}`)},
		{"unsorted ts", "not sorted", with(7, `{"ph":"C","ts":0,"pid":5,"tid":0}`)},
		{"E without B", "E without matching B", with(5, `{"ph":"E","ts":2,"pid":2,"tid":0}`)},
		{"unclosed span", "spans open", valid[:len(valid)-1]},
		{"negative X duration", "negative slice duration", with(3, `{"name":"hop","ph":"X","ts":1,"dur":-1,"pid":1,"tid":0}`)},
		{"flow without id", "flow event without id", with(4, `{"ph":"s","ts":1,"pid":1,"tid":0}`)},
		{"flow binding to no slice", "binds to no slice", with(4, `{"ph":"f","ts":1,"pid":1,"tid":7,"id":"p1"}`)},
		{"missing process_name", "no process_name metadata for pid 2", append(valid[:1:1], valid[2:]...)},
		{"unknown phase", "unknown phase", with(8, `{"ph":"Q","ts":3,"pid":1,"tid":0}`)},
		{"no events", "no trace events", nil},
		{"not JSON", "not trace-event JSON", []string{"{"}},
	} {
		err := ValidatePerfetto(strings.NewReader(trace(c.evs...)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

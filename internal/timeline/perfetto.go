package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Process ids of the Perfetto export's track groups: one thread per
// router, per directed link, and per core.
const (
	PidRouters = 1
	PidLinks   = 2
	PidCores   = 3
	// PidStages appears only for pipelined runs (any section tagged with
	// a nonzero stage or batch): one thread per pipeline stage, an "X"
	// slice per section executed on it. The gaps between slices on a
	// stage thread are the pipeline bubbles.
	PidStages = 4
	// PidServe is reserved for the serving layer's wall-clock "serve
	// plane" (internal/serve.WriteServePerfetto): queue depth, batch
	// windows and per-request lifecycle slices, rendered as ExtraEvents
	// alongside the simulated-cycle tracks.
	PidServe = 5
)

// LinkTid returns the Perfetto thread id of the link leaving node
// through direction dir (1..4).
func LinkTid(node, dir int) int { return node*4 + dir - 1 }

// pfEvent is one Chrome trace-event. Timestamps are in microseconds;
// the export maps 1 simulated cycle to 1 µs so Perfetto's time ruler
// reads directly as cycles.
type pfEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ExtraEvent is one caller-supplied Chrome trace-event merged into a
// WritePerfettoExtra export: the hook higher layers (the serving
// plane) use to render their own processes next to the simulated-cycle
// tracks. Fields mirror the trace-event format; TS/Dur are in
// microseconds on the same ruler as the simulated cycles. Metadata
// events (Ph "M") are emitted in the header block; everything else is
// merged into the global timestamp sort.
type ExtraEvent struct {
	Name string
	Cat  string
	Ph   string
	TS   int64
	Dur  int64
	Pid  int
	Tid  int
	ID   string
	BP   string
	Args map[string]any
}

// WritePerfetto renders the timeline as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
//
//   - process "routers": one thread per mesh router, an "X" slice per
//     hop a head flit spends buffered there (arrive → switch grant),
//     plus an ejection slice covering tail serialization, and instant
//     events for retransmissions and losses;
//   - process "links": one thread per directed mesh link, "B"/"E"
//     pairs bracketing each contiguous busy interval;
//   - process "cores": one thread per core, "B"/"E" pairs around each
//     layer's compute span;
//   - "s"/"t"/"f" flow arrows with one id per packet attempt stitch a
//     packet's hop slices into a visible chain across router tracks.
//
// The output is byte-deterministic: stamps are simulated cycles, the
// event order is a stable sort by timestamp over the deterministic
// record order, and JSON object keys are fixed.
func (t *Sink) WritePerfetto(w io.Writer, tool string, meta map[string]string) error {
	return t.WritePerfettoExtra(w, tool, meta, nil)
}

// WritePerfettoExtra is WritePerfetto with caller-supplied events
// merged in: extra metadata joins the header block, extra data events
// join the stable timestamp sort. Safe on a nil sink when extra is the
// only content (the sim-track processes are still declared so the
// export passes ValidatePerfetto).
func (t *Sink) WritePerfettoExtra(w io.Writer, tool string, meta map[string]string, extra []ExtraEvent) error {
	t.resolveStarts()
	secs := t.Sections()
	plat := t.Platform()

	pipelined := false
	for _, sec := range secs {
		if sec.Stage > 0 || sec.Batch > 0 {
			pipelined = true
			break
		}
	}

	var evs []pfEvent
	namedRouter := map[int]bool{}
	namedLink := map[int]bool{}
	namedCore := map[int]bool{}
	namedStage := map[int]bool{}
	thread := func(pid, tid int, named map[int]bool, name string) {
		if named[tid] {
			return
		}
		named[tid] = true
		evs = append(evs, pfEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	router := func(node int) {
		x, y := -1, -1
		if plat.MeshW > 0 {
			x, y = node%plat.MeshW, node/plat.MeshW
		}
		thread(PidRouters, node, namedRouter, fmt.Sprintf("router %d (%d,%d)", node, x, y))
	}

	for _, sec := range secs {
		if pipelined {
			thread(PidStages, sec.Stage, namedStage, fmt.Sprintf("stage %d", sec.Stage))
			evs = append(evs, pfEvent{Name: sec.Label, Cat: "stage", Ph: "X",
				TS: sec.Start, Dur: sec.span(), Pid: PidStages, Tid: sec.Stage,
				Args: map[string]any{"batch": sec.Batch, "comm": sec.Comm}})
		}
		chains, err := buildChains(sec)
		if err != nil {
			return err
		}
		for _, c := range chains {
			if c.Packet < 0 {
				continue // never-injected transfers carry no hop slices
			}
			id := fmt.Sprintf("%d.%d.%d", sec.Index, c.Packet, c.Attempt)
			name := fmt.Sprintf("pkt %d", c.Packet)
			if c.Attempt > 0 {
				name = fmt.Sprintf("pkt %d try %d", c.Packet, c.Attempt+1)
			}
			last := len(c.Hops) - 1
			for i, h := range c.Hops {
				if h.Depart == 0 && i == last && c.Outcome != Delivered {
					break // attempt ended before this hop departed
				}
				router(h.Node)
				ts := sec.Start + h.Arrive
				evs = append(evs, pfEvent{Name: name, Cat: "hop", Ph: "X",
					TS: ts, Dur: h.Depart - h.Arrive, Pid: PidRouters, Tid: h.Node,
					Args: map[string]any{
						"section": sec.Label, "src": c.Src, "dst": c.Dst,
						"out": DirNames[h.Port], "plane": h.Plane,
					}})
				switch {
				case i == 0 && i != last:
					evs = append(evs, pfEvent{Name: name, Cat: "hop", Ph: "s",
						TS: ts, Pid: PidRouters, Tid: h.Node, ID: id})
				case i != last:
					evs = append(evs, pfEvent{Name: name, Cat: "hop", Ph: "t",
						TS: ts, Pid: PidRouters, Tid: h.Node, ID: id})
				case i == last && i != 0:
					evs = append(evs, pfEvent{Name: name, Cat: "hop", Ph: "f", BP: "e",
						TS: ts, Pid: PidRouters, Tid: h.Node, ID: id})
				}
			}
			if c.Outcome == Delivered {
				h := c.Hops[last]
				evs = append(evs, pfEvent{Name: "eject " + name, Cat: "eject", Ph: "X",
					TS: sec.Start + h.Depart, Dur: c.Eject - h.Depart,
					Pid: PidRouters, Tid: h.Node,
					Args: map[string]any{"section": sec.Label, "flits": c.Flits}})
			}
		}
		for i := range sec.Events {
			e := &sec.Events[i]
			switch e.Kind {
			case KindRetx:
				router(int(e.Node))
				evs = append(evs, pfEvent{Name: fmt.Sprintf("retx pkt %d", e.Packet),
					Cat: "fault", Ph: "i", TS: sec.Start + e.Cycle,
					Pid: PidRouters, Tid: int(e.Node),
					Args: map[string]any{"section": sec.Label, "attempt": e.Attempt, "reinject": e.Queued}})
			case KindLost:
				router(int(e.Node))
				evs = append(evs, pfEvent{Name: fmt.Sprintf("lost %d→%d", e.Src, e.Dst),
					Cat: "fault", Ph: "i", TS: sec.Start + e.Cycle,
					Pid: PidRouters, Tid: int(e.Node),
					Args: map[string]any{"section": sec.Label, "pkt": e.Packet}})
			case KindLink:
				node, dir := int(e.Node), int(e.Port)
				tid := LinkTid(node, dir)
				thread(PidLinks, tid, namedLink,
					fmt.Sprintf("%d→%d %s", node, plat.Neighbor(node, dir), DirNames[dir]))
				evs = append(evs,
					pfEvent{Name: "busy", Cat: "link", Ph: "B", TS: sec.Start + e.Cycle,
						Pid: PidLinks, Tid: tid,
						Args: map[string]any{"section": sec.Label, "plane": e.Plane}},
					pfEvent{Name: "busy", Cat: "link", Ph: "E", TS: sec.Start + e.End,
						Pid: PidLinks, Tid: tid})
			case KindCompute:
				core := int(e.Node)
				thread(PidCores, core, namedCore, fmt.Sprintf("core %d", core))
				evs = append(evs,
					pfEvent{Name: sec.Label, Cat: "compute", Ph: "B", TS: sec.Start + e.Cycle,
						Pid: PidCores, Tid: core},
					pfEvent{Name: sec.Label, Cat: "compute", Ph: "E", TS: sec.Start + e.End,
						Pid: PidCores, Tid: core})
			}
		}
	}

	var extraMeta []pfEvent
	for _, e := range extra {
		pe := pfEvent{Name: e.Name, Cat: e.Cat, Ph: e.Ph, TS: e.TS, Dur: e.Dur,
			Pid: e.Pid, Tid: e.Tid, ID: e.ID, BP: e.BP, Args: e.Args}
		if e.Ph == "M" {
			extraMeta = append(extraMeta, pe)
		} else {
			evs = append(evs, pe)
		}
	}

	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Ph == "M" != (evs[j].Ph == "M") {
			return evs[i].Ph == "M" // metadata first
		}
		return evs[i].TS < evs[j].TS
	})

	head := []pfEvent{
		{Name: "process_name", Ph: "M", Pid: PidRouters, Args: map[string]any{"name": "routers"}},
		{Name: "process_name", Ph: "M", Pid: PidLinks, Args: map[string]any{"name": "links"}},
		{Name: "process_name", Ph: "M", Pid: PidCores, Args: map[string]any{"name": "cores"}},
	}
	if pipelined {
		head = append(head, pfEvent{Name: "process_name", Ph: "M", Pid: PidStages,
			Args: map[string]any{"name": "pipeline stages"}})
	}
	head = append(head, extraMeta...)
	evs = append(head, evs...)

	other := map[string]any{"tool": tool, "clock": "simulated cycles (1 cycle = 1 µs)"}
	for k, v := range meta {
		other[k] = v
	}

	bw := bufio.NewWriter(w)
	// Stream the array by hand so one huge run does not need a second
	// full in-memory copy as a marshalled byte slice.
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"otherData\":"); err != nil {
		return err
	}
	od, err := json.Marshal(other)
	if err != nil {
		return err
	}
	bw.Write(od)
	bw.WriteString(",\"traceEvents\":[\n")
	for i := range evs {
		if i > 0 {
			bw.WriteString(",\n")
		}
		b, err := json.Marshal(&evs[i])
		if err != nil {
			return err
		}
		bw.Write(b)
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidatePerfetto checks the structural invariants a trace viewer
// relies on in a WritePerfetto/WritePerfettoExtra export: metadata
// before data events, data events sorted by timestamp, named router,
// link and core processes, balanced B/E pairs per (pid, tid) track,
// non-negative X durations, every s/t/f flow arrow carrying an id and
// binding to an X slice that starts at its stamp on its track, and no
// phase outside the ones the writers emit.
func ValidatePerfetto(r io.Reader) error {
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			ID   string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return fmt.Errorf("timeline: not trace-event JSON: %w", err)
	}
	if len(tr.TraceEvents) == 0 {
		return fmt.Errorf("timeline: no trace events")
	}
	type track struct{ pid, tid int }
	depth := map[track]int{}
	slices := map[track]map[int64]bool{} // X slice start stamps per track
	procs := map[int]bool{}
	var prevTS int64
	sawData := false
	for i, e := range tr.TraceEvents {
		tk := track{e.Pid, e.Tid}
		switch e.Ph {
		case "M":
			if sawData {
				return fmt.Errorf("timeline: event %d: metadata after data events", i)
			}
			if e.Name == "process_name" {
				procs[e.Pid] = true
			}
			continue
		case "B":
			depth[tk]++
		case "E":
			if depth[tk]--; depth[tk] < 0 {
				return fmt.Errorf("timeline: event %d: E without matching B on pid=%d tid=%d", i, e.Pid, e.Tid)
			}
		case "X":
			if e.Dur < 0 {
				return fmt.Errorf("timeline: event %d: negative slice duration %d", i, e.Dur)
			}
			if slices[tk] == nil {
				slices[tk] = map[int64]bool{}
			}
			slices[tk][e.TS] = true
		case "s", "t", "f":
			if e.ID == "" {
				return fmt.Errorf("timeline: event %d: flow event without id", i)
			}
			if !slices[tk][e.TS] {
				return fmt.Errorf("timeline: event %d: flow %s at ts=%d binds to no slice on pid=%d tid=%d",
					i, e.ID, e.TS, e.Pid, e.Tid)
			}
		case "C", "i":
			// Counter tracks (the serve plane's queue depth) and
			// instants carry no invariant beyond the timestamp order.
		default:
			return fmt.Errorf("timeline: event %d: unknown phase %q", i, e.Ph)
		}
		sawData = true
		if e.TS < prevTS {
			return fmt.Errorf("timeline: event %d: ts %d after %d (not sorted)", i, e.TS, prevTS)
		}
		prevTS = e.TS
	}
	for _, pid := range []int{PidRouters, PidLinks, PidCores} {
		if !procs[pid] {
			return fmt.Errorf("timeline: no process_name metadata for pid %d", pid)
		}
	}
	for tk, d := range depth {
		if d != 0 {
			return fmt.Errorf("timeline: pid=%d tid=%d left %d spans open", tk.pid, tk.tid, d)
		}
	}
	return nil
}

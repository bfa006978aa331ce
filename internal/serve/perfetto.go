package serve

import (
	"fmt"
	"io"
	"sort"

	"learn2scale/internal/timeline"
)

// The serve-plane Perfetto export: a wall-clock process (pid
// timeline.PidServe) rendered next to the simulated-cycle tracks.
//
//	tid 0  queue depth   — a "C" counter stepping at every admission
//	                       and dequeue
//	tid 1  batch windows — one "X" slice per executed group spanning
//	                       its simulation pass
//	tid 2+ request lanes — five consecutive "X" slices per traced
//	                       request (queue → batch → sim → dequant →
//	                       respond); because the phases telescope the
//	                       slices tile the request's total latency
//	                       with no gaps
//
// Flow arrows stitch the planes together: each request's sim-phase
// slice points into its batch window, and each batch window points
// into the first pipeline-stage section of its simulated timeline
// (when the run recorded one), so a slow request can be followed from
// wall-clock queueing all the way down to the stage bubbles of the
// cycle-accurate simulation.
//
// The serve plane is wall-clock microseconds on the same ruler the sim
// tracks use for cycles (1 cycle = 1 µs); the flow arrows are the
// correlation between the two clocks, not a unit conversion.

// maxReqLanes bounds the per-request lanes; larger traces fold
// requests onto lanes by ID.
const maxReqLanes = 64

// WriteServePerfetto renders a wall-mode serve-trace log as the serve
// plane of a combined Perfetto export. tl may be nil (serve plane
// only) or the server's timeline sink, in which case the simulated
// batch sections render alongside and batch windows grow flow arrows
// into their pipeline-stage tracks.
func WriteServePerfetto(w io.Writer, log *TraceLog, tl *timeline.Sink, tool string, meta map[string]string) error {
	if log == nil || len(log.Reqs) == 0 {
		return fmt.Errorf("serve: trace log has no request records")
	}
	if !log.Wall {
		return fmt.Errorf("serve: stable-mode trace has no wall-clock spans; re-run with -trace-wall")
	}

	// The depth counter is reconstructed from the request records; a
	// sampled trace (-trace-sample N>1) is missing some admissions, so
	// the rendered depth undercounts the real queue. Detect sampling by
	// comparing recorded requests against the admissions the batch
	// records account for, and say so in the track name.
	served := 0
	for i := range log.Batches {
		served += log.Batches[i].Size
	}
	depthTrack := "queue depth"
	if len(log.Reqs) < served {
		depthTrack = fmt.Sprintf("queue depth (sampled: %d/%d reqs — undercounts)", len(log.Reqs), served)
	}

	var extra []timeline.ExtraEvent
	pid := timeline.PidServe
	extra = append(extra,
		timeline.ExtraEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": "serve plane (wall µs)"}},
		timeline.ExtraEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": depthTrack}},
		timeline.ExtraEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]any{"name": "batch windows"}},
	)

	// Queue-depth counter: +1 at each admission, -1 at each dequeue;
	// dequeues sort before admissions at the same stamp so the counter
	// never over-reads.
	type step struct {
		ts    int64 // ns
		delta int
	}
	var steps []step
	for i := range log.Reqs {
		r := &log.Reqs[i]
		steps = append(steps,
			step{ts: r.AdmitNS, delta: +1},
			step{ts: r.AdmitNS + r.QueueNS, delta: -1})
	}
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].ts != steps[j].ts {
			return steps[i].ts < steps[j].ts
		}
		return steps[i].delta < steps[j].delta
	})
	depth := 0
	for _, st := range steps {
		depth += st.delta
		extra = append(extra, timeline.ExtraEvent{Name: depthTrack, Cat: "serve",
			Ph: "C", TS: st.ts / 1e3, Pid: pid, Tid: 0,
			Args: map[string]any{"depth": depth}})
	}

	// Batch windows, with flow arrows into the first pipeline-stage
	// section each batch recorded (stage tracks exist only when the
	// simulated run was pipelined).
	var secs []*timeline.Section
	pipelined := false
	if tl != nil {
		secs = tl.Sections()
		for _, sec := range secs {
			if sec.Stage > 0 || sec.Batch > 0 {
				pipelined = true
				break
			}
		}
	}
	batchTS := map[int64]int64{} // batch ID → window slice TS (µs)
	for i := range log.Batches {
		b := &log.Batches[i]
		ts := b.StartNS / 1e3
		batchTS[b.ID] = ts
		extra = append(extra, timeline.ExtraEvent{
			Name: fmt.Sprintf("batch %d %s/%s ×%d", b.ID, b.Model, b.Precision, b.Size),
			Cat:  "serve", Ph: "X", TS: ts, Dur: b.SimNS / 1e3, Pid: pid, Tid: 1,
			Args: map[string]any{
				"batch": b.ID, "size": b.Size, "depth": b.Depth,
				"sim_base": b.SimBase, "sim_total": b.SimTotal,
			}})
		if pipelined && b.SecLo < b.SecHi && b.SecHi <= len(secs) {
			sec := secs[b.SecLo]
			id := fmt.Sprintf("serve.batch.%d", b.ID)
			extra = append(extra,
				timeline.ExtraEvent{Name: "sim", Cat: "serve", Ph: "s",
					TS: ts, Pid: pid, Tid: 1, ID: id},
				timeline.ExtraEvent{Name: "sim", Cat: "serve", Ph: "f", BP: "e",
					TS: sec.Start, Pid: timeline.PidStages, Tid: sec.Stage, ID: id})
		}
	}

	// Request lanes: one per request when they fit, folded by ID above
	// maxReqLanes.
	perReq := len(log.Reqs) <= maxReqLanes
	named := map[int]bool{}
	for i := range log.Reqs {
		r := &log.Reqs[i]
		tid := 2 + i
		if !perReq {
			tid = 2 + int(r.ID%maxReqLanes)
		}
		if !named[tid] {
			named[tid] = true
			name := fmt.Sprintf("req %d", r.ID)
			if !perReq {
				name = fmt.Sprintf("req lane %d", tid-2)
			}
			extra = append(extra, timeline.ExtraEvent{Name: "thread_name", Ph: "M",
				Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
		}
		cum := r.AdmitNS
		for ph, d := range r.Phases() {
			ts := cum / 1e3
			dur := (cum+d)/1e3 - ts
			ev := timeline.ExtraEvent{
				Name: fmt.Sprintf("req %d %s", r.ID, Phase(ph)),
				Cat:  "serve", Ph: "X", TS: ts, Dur: dur, Pid: pid, Tid: tid,
				Args: map[string]any{
					"req": r.ID, "batch": r.Batch, "slot": r.Slot,
					"model": r.Model + "/" + r.Precision, "class": r.Class,
					"ns": d,
				}}
			if Phase(ph) == PhaseSim {
				ev.Args["sim_cycles"] = r.SimCycles
			}
			// The slice must precede its outgoing flow at the same
			// stamp: the stable timestamp sort keeps append order for
			// ties, and both Perfetto and timeline.ValidatePerfetto bind a flow to an
			// already-seen slice on its track.
			extra = append(extra, ev)
			if Phase(ph) == PhaseSim {
				if wts, ok := batchTS[r.Batch]; ok {
					id := fmt.Sprintf("serve.req.%d", r.ID)
					extra = append(extra,
						timeline.ExtraEvent{Name: "batch", Cat: "serve", Ph: "s",
							TS: ts, Pid: pid, Tid: tid, ID: id},
						timeline.ExtraEvent{Name: "batch", Cat: "serve", Ph: "f", BP: "e",
							TS: wts, Pid: pid, Tid: 1, ID: id})
				}
			}
			cum += d
		}
	}

	if meta == nil {
		meta = map[string]string{}
	} else {
		m2 := make(map[string]string, len(meta)+1)
		for k, v := range meta {
			m2[k] = v
		}
		meta = m2
	}
	meta["serve_plane"] = "wall-clock µs; sim tracks are cycles"
	return tl.WritePerfettoExtra(w, tool, meta, extra)
}

package serve

import (
	"fmt"
	"io"
	"sort"
)

// Trace analysis: per-phase latency attribution and tail-latency blame
// from a wall-mode serve-trace log — the l2s-trace -serve backend.
//
// The questions it answers are the ones aggregate percentiles cannot:
// for THIS model, where does a typical request's latency go (phase
// shares of the mean), and which phase is to blame when the p99
// request is slow (the dominant phase among tail requests)? Because
// the phase decomposition telescopes exactly, the shares of each
// request sum to 1 and the attribution is complete — no "unaccounted"
// bucket.

// PhaseStat aggregates one lifecycle phase across a model's requests.
type PhaseStat struct {
	MeanNS int64 `json:"mean_ns"`
	// Share is the phase's fraction of the mean total latency; the
	// shares of a model sum to 1 (telescoping).
	Share float64 `json:"share"`
	// TailShare is the phase's mean fraction of total latency among
	// tail requests (total >= p99).
	TailShare float64 `json:"tail_share"`
}

// ModelTraceStats is one model's phase attribution.
type ModelTraceStats struct {
	Model     string  `json:"model"`
	Precision string  `json:"precision"`
	Requests  int     `json:"requests"`
	Batches   int     `json:"batches"`
	MeanBatch float64 `json:"mean_batch"` // mean group size over this model's requests

	TotalP50NS int64 `json:"total_p50_ns"`
	TotalP99NS int64 `json:"total_p99_ns"`

	Phases [NumPhases]PhaseStat `json:"phases"`
	// TailBlame is the phase that dominates tail requests (the one
	// with the largest TailShare): the answer to "why is p99 slow".
	TailBlame Phase `json:"tail_blame"`
}

// TraceAnalysis is the full per-model attribution of a trace log.
type TraceAnalysis struct {
	Models []ModelTraceStats `json:"models"`
}

// AnalyzeTrace computes per-model phase attribution from a serve-trace
// log. The log must be wall-mode (volatile wall-clock fields present):
// a stable-mode log carries only the correlation skeleton, so there is
// nothing to attribute.
func AnalyzeTrace(log *TraceLog) (*TraceAnalysis, error) {
	if log == nil || len(log.Reqs) == 0 {
		return nil, fmt.Errorf("serve: trace log has no request records")
	}
	if !log.Wall {
		return nil, fmt.Errorf("serve: stable-mode trace has no wall-clock phases; re-run with -trace-wall")
	}
	type acc struct {
		reqs    []ReqTrace
		batches map[int64]bool
	}
	byModel := map[string]*acc{}
	var names []string
	for _, r := range log.Reqs {
		k := r.Model + "/" + r.Precision
		a := byModel[k]
		if a == nil {
			a = &acc{batches: map[int64]bool{}}
			byModel[k] = a
			names = append(names, k)
		}
		a.reqs = append(a.reqs, r)
		a.batches[r.Batch] = true
	}
	sort.Strings(names)

	out := &TraceAnalysis{}
	for _, k := range names {
		a := byModel[k]
		first := a.reqs[0]
		st := ModelTraceStats{
			Model:     first.Model,
			Precision: first.Precision,
			Requests:  len(a.reqs),
			Batches:   len(a.batches),
		}
		totals := make([]int64, 0, len(a.reqs))
		var sumTotal, sumBatch int64
		var sumPhase [NumPhases]int64
		for _, r := range a.reqs {
			totals = append(totals, r.TotalNS)
			sumTotal += r.TotalNS
			sumBatch += int64(r.BatchSize)
			for ph, d := range r.Phases() {
				sumPhase[ph] += d
			}
		}
		sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
		st.MeanBatch = float64(sumBatch) / float64(len(a.reqs))
		st.TotalP50NS = quantile(totals, 0.50)
		st.TotalP99NS = quantile(totals, 0.99)
		for ph := range st.Phases {
			st.Phases[ph].MeanNS = sumPhase[ph] / int64(len(a.reqs))
			if sumTotal > 0 {
				st.Phases[ph].Share = float64(sumPhase[ph]) / float64(sumTotal)
			}
		}
		// Tail blame: mean phase shares over the requests at or above
		// the p99 total, then pick the dominant phase.
		var tailSum [NumPhases]float64
		tailN := 0
		for _, r := range a.reqs {
			if r.TotalNS < st.TotalP99NS || r.TotalNS <= 0 {
				continue
			}
			tailN++
			for ph, d := range r.Phases() {
				tailSum[ph] += float64(d) / float64(r.TotalNS)
			}
		}
		if tailN > 0 {
			for ph := range st.Phases {
				st.Phases[ph].TailShare = tailSum[ph] / float64(tailN)
				if st.Phases[ph].TailShare > st.Phases[st.TailBlame].TailShare {
					st.TailBlame = Phase(ph)
				}
			}
		}
		out.Models = append(out.Models, st)
	}
	return out, nil
}

// WriteTable renders the attribution as an aligned text table: one row
// per model with total percentiles, per-phase mean shares, and the
// tail-blame phase.
func (a *TraceAnalysis) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-16s %6s %6s %8s %9s %9s", "model", "reqs", "batch", "avg_bsz", "p50_ms", "p99_ms")
	for _, name := range PhaseNames {
		fmt.Fprintf(w, " %8s", name+"%")
	}
	fmt.Fprintf(w, " %10s\n", "tail_blame")
	for _, st := range a.Models {
		fmt.Fprintf(w, "%-16s %6d %6d %8.2f %9.3f %9.3f",
			st.Model+"/"+st.Precision, st.Requests, st.Batches, st.MeanBatch,
			float64(st.TotalP50NS)/1e6, float64(st.TotalP99NS)/1e6)
		for _, ps := range st.Phases {
			fmt.Fprintf(w, " %7.1f%%", ps.Share*100)
		}
		fmt.Fprintf(w, " %10s\n", st.TailBlame)
	}
}

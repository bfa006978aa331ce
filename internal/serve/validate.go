package serve

import (
	"errors"
	"fmt"
	"strings"

	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
)

// volatile reports whether a serving metric is wall-clock class: it
// must never reach a stable record or a deterministic live stream.
func volatile(name string) bool {
	switch name {
	case "serve.latency", "serve.queue_depth", "serve.rejected":
		return true
	}
	return strings.HasPrefix(name, "serve.phase.")
}

// ValidateRecord enforces the serving path's stable flight-record
// contract: balanced, non-zero request accounting, the batch-size
// histogram, the per-layer simulation gauges the batched pipeline
// passes produce, and no volatile serving metric leaked into the
// byte-compared sections.
func ValidateRecord(rec obs.FlightRecord) error {
	var problems []string
	leaked := func(name string) {
		if volatile(name) {
			problems = append(problems, "volatile "+name+" leaked into the stable record")
		}
	}
	counters := map[string]int64{}
	for _, c := range rec.Counters {
		counters[c.Name] = c.Value
		leaked(c.Name)
	}
	layerGauges := false
	for _, g := range rec.Gauges {
		layerGauges = layerGauges || strings.Contains(g.Name, "sim.layer.")
		leaked(g.Name)
	}
	batchSizes := false
	for _, h := range rec.Histograms {
		batchSizes = batchSizes || h.Name == "serve.batch_size"
		leaked(h.Name)
	}
	reqs, haveReqs := counters["serve.requests"]
	resps, haveResps := counters["serve.responses"]
	switch {
	case !haveReqs || !haveResps:
		problems = append(problems, "missing serve.requests/serve.responses counters")
	case reqs != resps:
		problems = append(problems, fmt.Sprintf("unbalanced serving accounting: %d requests, %d responses", reqs, resps))
	case reqs == 0:
		problems = append(problems, "serving counters present but zero requests were served")
	}
	if !batchSizes {
		problems = append(problems, "missing serve.batch_size histogram")
	}
	if !layerGauges {
		problems = append(problems, "no per-layer simulation gauges (did the batches run the pipeline?)")
	}
	if len(problems) > 0 {
		return errors.New("serve: record: " + strings.Join(problems, "; "))
	}
	return nil
}

// ValidateStream enforces the same contract on a deterministic live
// stream: at least one "serve.batch" window and no volatile serving
// metric in any window.
func ValidateStream(snaps []live.WindowSnap) error {
	batches := 0
	for _, s := range snaps {
		if s.Label == "serve.batch" {
			batches++
		}
		var names []string
		for _, c := range s.Counters {
			names = append(names, c.Name)
		}
		for _, g := range s.Gauges {
			names = append(names, g.Name)
		}
		for _, h := range s.Hists {
			names = append(names, h.Name)
		}
		for _, name := range names {
			if volatile(name) {
				return fmt.Errorf("serve: stream window %d: volatile %s in a deterministic stream", s.Window, name)
			}
		}
	}
	if batches == 0 {
		return errors.New("serve: stream has no serve.batch windows (did the server execute any batches?)")
	}
	return nil
}

// Command perfbench is learn2scale's same-machine benchmark. It runs one
// named workload from a seed, checks every served or simulated output,
// and prints one JSON object as the last line of standard output: the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separate traced run. Metric names and units come from BENCHMARK.json
// in the working directory, and the run fails unless it measured every
// metric that file declares.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 25 --trace 0
//
// Workloads: serve-hot, serve-mixed, paper-sim (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// serveLayerMetrics are the per-layer metrics of the serving layer,
// which only the serve workloads exercise.
var serveLayerMetrics = []string{
	"serve.queue_ms.p50", "serve.queue_ms.p99", "serve.batch_wait_ms.p50",
	"serve.sim_ms.p50", "serve.forward_ms.p50",
	"serve.batch_size.mean", "serve.batch_size.max",
	"serve.busy_share", "serve.forward_share", "serve.rejected_share",
	"serve.allocs_per_req", "serve.alloc_bytes_per_req",
}

func main() {
	workload := flag.String("workload", "", "serve-hot, serve-mixed or paper-sim")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	secs := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead")
	rev := flag.String("rev", "unknown", "source revision, for the run record")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition")
	recordDir := flag.String("record", filepath.Join(".bench_build", "perfbench", "runs"), "directory for run records")
	flag.Parse()

	// One processor unless the caller says otherwise: on a small shared
	// host a second one serves no more requests and makes every
	// cross-thread wake-up depend on a neighbour's load.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	if err := benchMain(*workload, *seed, *secs, *trace, *rev, *specPath, *recordDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func benchMain(workload string, seed int64, secs, trace int, rev, specPath, recordDir string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if secs < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1, got %d and %d", secs, trace)
	}
	defs := spec.EndToEnd
	if trace == 1 {
		defs = spec.PerLayer
	}

	r := newRun(workload, seed, time.Duration(secs)*time.Second, trace == 1)
	fp := machineFingerprint(rev)
	started := time.Now()
	switch workload {
	case "serve-hot":
		err = runServe(r, true)
	case "serve-mixed":
		err = runServe(r, false)
	case "paper-sim":
		err = runPaperSim(r)
	default:
		err = fmt.Errorf("unknown workload %q (want serve-hot, serve-mixed or paper-sim)", workload)
	}
	if err != nil {
		return err
	}

	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s did not measure %v", workload, missing)
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}

	rec := map[string]any{
		"workload": workload, "seed": seed, "seconds": secs, "trace": trace,
		"wall_s": time.Since(started).Seconds(), "machine": fp,
		"result": res, "notes": r.notes, "failures": r.failures,
	}
	if err := writeRecord(recordDir, fmt.Sprintf("%s.seed%d.trace%d.json", workload, seed, trace), rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
	}
	printSummary(r, fp, res)

	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d output checks failed, first: %v", r.nFailures, r.failures)
	}
	return nil
}

func writeRecord(dir, name string, rec any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}

// printSummary writes the run in human-readable form to standard error.
func printSummary(r *run, fp fingerprint, res result) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d trace %v on %s (nproc %d, GOMAXPROCS %d, workers %d, %s, rev %s)\n",
		r.workload, r.seed, r.traced, fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.Workers, fp.GoVersion, fp.Revision)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	notes := make([]string, 0, len(r.notes))
	for n := range r.notes {
		notes = append(notes, n)
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "  note %-31s %v\n", n, r.notes[n])
	}
	fmt.Fprintf(os.Stderr, "  correct %v, %d attempted, %d failed\n", res.Correct, res.Attempted, res.Failed)
}

// The determinism matrix: every reproduction contract that is a byte
// identity — records, streams, timelines, traces and logits identical
// at any host worker count; zero faults ≡ no fault layer; observers
// that never perturb what they observe — as one table of rows.
//
// A row captures its artifacts once per worker count, compares every
// artifact byte for byte against the first count's, runs its
// validators on the first capture, and then its own assertions.
// TestDeterminismMatrix holds the rows that run a cmd/ binary (built
// once per test run) with each output flag pointed into a fresh
// directory. The other rows run in process, because no CLI exposes
// what they compare (bitwise quantized logits, live streams for all
// four schemes, the fault sweep's record, served logits, the
// pure-observer checks); each is a named test, TestFlightRecord...
// and its siblings below, run through the same runRow. Rows that need
// a running process (HTTP drain on SIGTERM, a mid-run /metrics scrape)
// wait on the process's own log lines, never on a fixed sleep.
//
//	go test -run TestDeterminismMatrix .            # every table row
//	go test -run 'TestDeterminismMatrix/serve' .    # one family
//	go test -run 'Record|Pure|LiveStream' .         # the in-process rows
package learn2scale_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"learn2scale"
	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/parallel"
	"learn2scale/internal/serve"
	"learn2scale/internal/timeline"
)

// artifacts maps what one capture produced — a file a command wrote,
// "stdout", or a named in-process value — to its bytes.
type artifacts map[string][]byte

// validator checks one artifact's structure.
type validator func([]byte) error

// row is one determinism contract.
type row struct {
	name string
	// capture produces the row's artifacts at one host worker count.
	capture func(t *testing.T, workers int) artifacts
	// workers are the counts whose captures must be byte-identical to
	// the first one's; nil runs the capture once, at one worker (the
	// cheapest in CPU time). Under -short the short counts replace
	// them, and skipShort drops the row.
	workers, short []int
	skipShort      bool
	// validate maps an artifact name to its validator, run on the
	// first capture.
	validate map[string]validator
	// assert holds the row's other assertions, run on the first
	// capture.
	assert func(t *testing.T, ref artifacts)
}

var (
	allWorkers   = []int{1, 2, 7}
	shortWorkers = []int{1, 7}
)

// runRow captures, compares, validates and asserts one row.
func runRow(t *testing.T, r row) {
	workers := r.workers
	if testing.Short() {
		if r.skipShort {
			t.Skip("row trimmed under -short")
		}
		if r.short != nil {
			workers = r.short
		}
	}
	if workers == nil {
		workers = []int{1}
	}
	caps := make([]artifacts, len(workers))
	for i, w := range workers {
		caps[i] = r.capture(t, w)
		if t.Failed() {
			return
		}
	}
	for _, err := range checkRow(workers, r.validate, caps) {
		t.Error(err)
	}
	if r.assert != nil && !t.Failed() {
		r.assert(t, caps[0])
	}
}

// checkRow compares every capture's artifacts byte for byte against
// the first capture's and runs the validators on the first capture.
func checkRow(workers []int, validate map[string]validator, caps []artifacts) []error {
	var errs []error
	ref := caps[0]
	for i, c := range caps[1:] {
		w := workers[i+1]
		for _, name := range sortedNames(ref, c) {
			want, inRef := ref[name]
			got, inCap := c[name]
			switch {
			case !inRef || !inCap:
				errs = append(errs, fmt.Errorf("%s: present at only one of workers=%d and workers=%d", name, workers[0], w))
			case !bytes.Equal(want, got):
				errs = append(errs, fmt.Errorf("%s differs between workers=%d and workers=%d: %s", name, workers[0], w, firstDiff(want, got)))
			}
		}
	}
	names := make([]string, 0, len(validate))
	for name := range validate {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, ok := ref[name]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: not captured", name))
			continue
		}
		if err := validate[name](b); err != nil {
			errs = append(errs, fmt.Errorf("%s: %v", name, err))
		}
	}
	return errs
}

func sortedNames(sets ...artifacts) []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range sets {
		for name := range s {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// firstDiff describes where two artifacts diverge, with a little
// context on each side, instead of dumping whole records.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d (lengths %d, %d): %q vs %q", i, len(a), len(b), a[lo:min(i+40, len(a))], b[lo:min(i+40, len(b))])
}

// TestDeterminismMatrixSelfTest pins the row checker itself: a single
// differing byte between worker counts, a missing artifact, or an
// artifact its validator rejects must each fail the row.
func TestDeterminismMatrixSelfTest(t *testing.T) {
	rec := func() []byte {
		reg := obs.New()
		reg.Counter("x", obs.Stable).Add(1)
		var buf bytes.Buffer
		if err := reg.Record("test", nil, false).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := map[string]validator{"rec.json": validRecord}
	same := []artifacts{{"rec.json": rec()}, {"rec.json": rec()}, {"rec.json": rec()}}
	if errs := checkRow(allWorkers, valid, same); len(errs) != 0 {
		t.Fatalf("identical valid captures fail the row: %v", errs)
	}

	flipped := []artifacts{{"rec.json": rec()}, {"rec.json": rec()}, {"rec.json": rec()}}
	flipped[2]["rec.json"][10] ^= 1
	if errs := checkRow(allWorkers, nil, flipped); len(errs) != 1 || !strings.Contains(errs[0].Error(), "workers=1 and workers=7") {
		t.Errorf("one flipped byte at workers=7: got %v, want one differs error", errs)
	}

	missing := []artifacts{{"rec.json": rec(), "stdout": []byte("x")}, {"rec.json": rec()}}
	if errs := checkRow([]int{1, 2}, nil, missing); len(errs) != 1 || !strings.Contains(errs[0].Error(), "stdout") {
		t.Errorf("artifact missing at workers=2: got %v, want one error naming it", errs)
	}

	bad := []artifacts{{"rec.json": []byte(`{"version":1}`)}, {"rec.json": []byte(`{"version":1}`)}}
	if errs := checkRow([]int{1, 2}, valid, bad); len(errs) != 1 {
		t.Errorf("identical but invalid captures: got %v, want one validator error", errs)
	}
	if errs := checkRow([]int{0}, map[string]validator{"tl.tl": validTimeline}, []artifacts{{}}); len(errs) != 1 {
		t.Errorf("validated artifact never captured: got %v, want one error", errs)
	}
}

// In-process rows. Each keeps the name of the test it replaced, so
// every contract's test ID is stable, and runs through the same runRow
// as the matrix. Top-level tests run one after another, so these may
// set the worker environment variable and the parallel package's
// registry. Go runs tests in file-name order, then declaration order:
// this file sorts after learn2scale_test.go and declares these before
// TestDeterminismMatrix, so under `go test ./...` the mostly serial
// tests run beside other packages' tests, and the matrix's parallel
// rows, which fill every CPU, run last.

// TestFlightRecordDeterministicAcrossWorkers: the stable flight record
// of the instrumented golden session (trainer, sparsifier, simulation,
// worker pool) is a pure function of the workload.
func TestFlightRecordDeterministicAcrossWorkers(t *testing.T) {
	runRow(t, row{
		capture: func(t *testing.T, w int) artifacts { return captureGolden(t, learn2scale.SSMask, w, false) },
		workers: allWorkers, short: shortWorkers,
		validate: map[string]validator{"record.json": validRecord},
		assert:   func(t *testing.T, ref artifacts) { requireSections(t, ref["record.json"]) },
	})
}

// TestFlightRecordRoundTrip: the record with its volatile profile
// attached survives a read+write round trip and carries every section,
// per-worker pool utilization included.
func TestFlightRecordRoundTrip(t *testing.T) {
	for _, w := range []int{1, 7} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			runRow(t, row{
				capture:  captureProfiled,
				workers:  []int{w},
				validate: map[string]validator{"record.json": validRecord},
				assert: func(t *testing.T, ref artifacts) {
					requireSections(t, ref["record.json"])
					requireWorkerProfile(t, ref["record.json"])
				},
			})
		})
	}
}

// TestTimelineRecordByteIdenticalAcrossWorkers: every stamp in a
// timeline record is a simulated cycle.
func TestTimelineRecordByteIdenticalAcrossWorkers(t *testing.T) {
	runRow(t, row{
		capture:  captureTimeline,
		workers:  allWorkers,
		validate: map[string]validator{"timeline.tl": validTimeline},
	})
}

// TestTimelineSinkPureObservation: attaching a timeline sink leaves
// the simulation report unchanged.
func TestTimelineSinkPureObservation(t *testing.T) {
	runRow(t, row{
		capture:  captureTimelinePurity,
		workers:  []int{2},
		validate: map[string]validator{"timeline.tl": validTimeline},
		assert:   assertTimelinePurity,
	})
}

// TestPipelineTimelinePureObservation: the same for a pipelined run.
func TestPipelineTimelinePureObservation(t *testing.T) {
	runRow(t, row{
		capture:  capturePipelinePurity,
		workers:  []int{2},
		validate: map[string]validator{"timeline.tl": validTimeline},
		assert:   assertPipelinePurity,
	})
}

// TestQuantRecordsByteIdenticalAcrossWorkers: the int16 record and
// every quantized logit, bit for bit.
func TestQuantRecordsByteIdenticalAcrossWorkers(t *testing.T) {
	runRow(t, row{
		capture:  captureQuant,
		workers:  allWorkers,
		validate: map[string]validator{"record.json": validRecord},
	})
}

// TestFaultRecordDeterministicAcrossWorkers: the -exp faults sweep's
// record and rows.
func TestFaultRecordDeterministicAcrossWorkers(t *testing.T) {
	runRow(t, row{
		capture:  captureFaultSweep,
		workers:  allWorkers,
		validate: map[string]validator{"record.json": validRecord},
		assert: func(t *testing.T, ref artifacts) {
			// One gauge set per (scheme, rate) cell under the grid
			// position names the sweep promises.
			for _, want := range []string{
				"faults.baseline.rate00.accuracy",
				"faults.ssmask.rate02.lost_transfers",
				"faults.structure.rate01.retransmits",
				"faults.ss.rate02.total_cycles",
			} {
				if !bytes.Contains(ref["record.json"], []byte(want)) {
					t.Errorf("fault record missing gauge %q", want)
				}
			}
		},
	})
}

// TestLiveStreamDeterministicAcrossWorkers: the deterministic live
// stream and the record beside it, for every scheme. Under -short only
// SS_Mask runs.
func TestLiveStreamDeterministicAcrossWorkers(t *testing.T) {
	for _, s := range []struct {
		name   string
		scheme learn2scale.Scheme
	}{
		{"baseline", learn2scale.Baseline},
		{"struct", learn2scale.StructureLevel},
		{"ss", learn2scale.SS},
		{"ssmask", learn2scale.SSMask},
	} {
		t.Run(s.name, func(t *testing.T) {
			runRow(t, row{
				capture: func(t *testing.T, w int) artifacts { return captureGolden(t, s.scheme, w, true) },
				workers: allWorkers, short: shortWorkers,
				skipShort: s.scheme != learn2scale.SSMask,
				// Epoch windows, at least one simulation window and the
				// final catch-all from Close.
				validate: map[string]validator{"stream.jsonl": validStream(5), "record.json": validRecord},
			})
		})
	}
}

// TestTapIsPureObserver: attaching a live plane leaves the flight
// record byte for byte what it is without one.
func TestTapIsPureObserver(t *testing.T) {
	runRow(t, row{
		capture: func(t *testing.T, w int) artifacts { return captureGolden(t, learn2scale.SSMask, w, true) },
		assert:  assertTapPure,
	})
}

// TestServeRecordDeterministicAcrossWorkers: a pool trained and served
// at each worker count gives the same stream, stable record and
// response logit bits, with the served accounting.
func TestServeRecordDeterministicAcrossWorkers(t *testing.T) {
	runRow(t, row{
		capture: func(t *testing.T, w int) artifacts { return captureServe(t, servePool(t, w), w, false) },
		workers: allWorkers, short: shortWorkers,
		validate: map[string]validator{"record.json": validServeRecord, "stream.jsonl": validServeStream},
		assert:   assertServeAccounting,
	})
}

// TestServeTraceIsPureObservation: the stable serve-trace log is
// byte-identical at every worker count, and attaching its sink changes
// nothing it observes.
func TestServeTraceIsPureObservation(t *testing.T) {
	runRow(t, row{
		capture: func(t *testing.T, w int) artifacts { return captureServe(t, servePool(t, w), w, true) },
		workers: allWorkers, short: shortWorkers,
		validate: map[string]validator{"trace.jsonl": validServeTrace(false)},
		assert: func(t *testing.T, ref artifacts) {
			assertTracePure(t, ref, captureServe(t, servePool(t, 1), 1, false))
		},
	})
}

// TestDeterminismMatrix runs the command rows, in parallel. They need
// the built binaries and about a CPU-minute, so they run in the full
// `go test ./...` only; -short (the race run, whose race detector
// cannot see into the binaries) skips them. The in-process rows are
// the named tests above.
func TestDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("command rows run without -short")
	}
	bin := t.TempDir()
	// -s -w: no symbol table or DWARF, which halves the link time.
	build := exec.Command("go", "build", "-ldflags=-s -w", "-o", bin+string(filepath.Separator), "./cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build commands: %v\n%s", err, out)
	}
	for _, r := range matrixRows(bin) {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			runRow(t, r)
		})
	}
}

// matrixRows is the table. bin holds the built cmd/ binaries.
func matrixRows(bin string) []row {
	cmd := func(name string, args ...string) func(*testing.T, int) artifacts {
		return func(t *testing.T, workers int) artifacts { return runCmd(t, bin, workers, name, args...) }
	}
	mlp := []string{"-net", "mlp", "-cores", "16", "-scheme", "ssmask", "-epochs", "2"}
	sim := func(args ...string) func(*testing.T, int) artifacts {
		return cmd("l2s-sim", append(append([]string{}, mlp...), args...)...)
	}
	script := []string{"-precisions", "float32,int16", "-epochs", "2", "-script", "serve_script.jsonl"}
	serveCmd := func(args ...string) func(*testing.T, int) artifacts {
		return cmd("l2s-serve", append(append([]string{}, script...), args...)...)
	}
	return []row{
		// Command rows, longest first so the parallel tail is short.

		// One scripted serving run emits the flight record, the live
		// stream and the stable serve-trace log together.
		{
			name:    "serve-script",
			capture: serveCmd("-obs", "@rec.json", "-live", "@live.jsonl", "-serve-trace", "@trace.jsonl"),
			workers: allWorkers,
			validate: map[string]validator{
				"rec.json": validServeRecord, "live.jsonl": validServeStream, "trace.jsonl": validServeTrace(false),
			},
		},
		{
			name:     "bench-pipeline",
			capture:  cmd("l2s-bench", "-exp", "pipeline"),
			validate: map[string]validator{"stdout": nonEmpty},
		},
		{
			name:     "train-live",
			capture:  cmd("l2s-train", "-net", "mlp", "-epochs", "3", "-q", "-live", "@live.jsonl"),
			workers:  allWorkers,
			validate: map[string]validator{"live.jsonl": validStream(4)},
			assert: func(t *testing.T, ref artifacts) {
				top := runCmd(t, bin, 0, "l2s-top", "-follow", writeArtifact(t, ref, "live.jsonl"), "-once")
				if len(top["stdout"]) == 0 {
					t.Error("l2s-top rendered nothing")
				}
			},
		},
		{
			name:     "alexnet-pipeline-perfetto",
			capture:  cmd("l2s-sim", "-net", "alexnet", "-cores", "16", "-pipeline-depth", "4", "-pipeline-batches", "8", "-timeline", "@pipeline.json"),
			validate: map[string]validator{"pipeline.json": validPerfetto},
		},
		// Flight record, live stream and timeline of one train-then-
		// simulate run. The zero-fault run writes only the record, so
		// its equality also shows -live and -timeline observe purely.
		{
			name:     "sim",
			capture:  sim("-obs", "@rec.json", "-live", "@live.jsonl", "-timeline", "@tl.tl"),
			workers:  allWorkers,
			validate: map[string]validator{"rec.json": validRecord, "live.jsonl": validStream(2), "tl.tl": validTimeline},
			assert: func(t *testing.T, ref artifacts) {
				requireSections(t, ref["rec.json"])
				zero := runCmd(t, bin, 1, "l2s-sim", append(append([]string{}, mlp...), "-fault-rate", "0", "-obs", "@rec.json")...)
				if !bytes.Equal(zero["rec.json"], ref["rec.json"]) {
					t.Errorf("zero-fault record differs from the fault-free record: %s", firstDiff(ref["rec.json"], zero["rec.json"]))
				}
			},
		},
		{
			name:     "sim-faults",
			capture:  sim("-fault-rate", "0.1", "-obs", "@rec.json"),
			workers:  allWorkers,
			validate: map[string]validator{"rec.json": validRecord},
		},
		{
			name:     "sim-pipeline",
			capture:  sim("-pipeline-depth", "2", "-pipeline-batches", "3", "-obs", "@rec.json", "-timeline", "@tl.tl"),
			workers:  allWorkers,
			validate: map[string]validator{"rec.json": validRecord, "tl.tl": validTimeline},
		},
		// The health rule fails the run if quantized top-1 falls more
		// than 0.02 below float.
		{
			name: "sim-int16",
			capture: sim("-precision", "int16", "-obs", "@rec.json", "-live", "@live.jsonl",
				"-health", "quant.accuracy_delta.last > 0.02"),
			workers:  allWorkers,
			validate: map[string]validator{"rec.json": validRecord, "live.jsonl": validStream(1)},
		},
		{
			name: "serve-wall",
			capture: serveCmd("-trace-wall", "-serve-trace", "@wall.jsonl", "-timeline", "@serve.tl",
				"-serve-perfetto", "@combined.json"),
			validate: map[string]validator{
				"wall.jsonl": validServeTrace(true), "serve.tl": validTimeline, "combined.json": validPerfetto,
			},
			assert: func(t *testing.T, ref artifacts) {
				if out := runCmd(t, bin, 0, "l2s-trace", "-serve", writeArtifact(t, ref, "wall.jsonl")); len(out["stdout"]) == 0 {
					t.Error("l2s-trace -serve rendered nothing")
				}
			},
		},
		{
			name:     "train-metrics-scrape",
			capture:  func(t *testing.T, w int) artifacts { return scrapeTraining(t, bin, w) },
			validate: map[string]validator{"metrics.txt": validProm},
		},
		{
			name:     "alexnet-timeline",
			capture:  cmd("l2s-sim", "-net", "alexnet", "-cores", "16", "-timeline", "@alexnet.tl"),
			validate: map[string]validator{"alexnet.tl": validTimeline},
			assert: func(t *testing.T, ref artifacts) {
				tl := writeArtifact(t, ref, "alexnet.tl")
				if out := runCmd(t, bin, 0, "l2s-trace", "-top", "5", tl); len(out["stdout"]) == 0 {
					t.Error("l2s-trace rendered nothing")
				}
				conv := runCmd(t, bin, 0, "l2s-trace", "-perfetto", "@conv.json", tl)
				if err := validPerfetto(conv["conv.json"]); err != nil {
					t.Errorf("converted record: %v", err)
				}
			},
		},
		{
			name:     "serve-http-drain",
			capture:  func(t *testing.T, w int) artifacts { return serveHTTP(t, bin, w) },
			validate: map[string]validator{"infer.json": validInferResponse},
		},
		{
			name:     "sim-timing",
			capture:  sim("-obs", "@rec.json", "-obs-timing"),
			workers:  []int{4},
			validate: map[string]validator{"rec.json": validRecord},
			assert:   func(t *testing.T, ref artifacts) { requireWorkerProfile(t, ref["rec.json"]) },
		},
		{
			name:     "alexnet-perfetto",
			capture:  cmd("l2s-sim", "-net", "alexnet", "-cores", "16", "-timeline", "@alexnet.json"),
			validate: map[string]validator{"alexnet.json": validPerfetto},
		},
		{
			name:     "sim-csv",
			capture:  sim("-obs", "@rec.csv"),
			validate: map[string]validator{"rec.csv": validCSV},
		},
		// The locality gate: SS_Mask's mean hop count strictly below
		// the dense baseline's on the same workload.
		{
			name: "mean-hops",
			capture: func(t *testing.T, w int) artifacts {
				a := runCmd(t, bin, w, "l2s-sim", "-net", "mlp", "-cores", "16", "-scheme", "none", "-epochs", "3", "-timeline", "@baseline.tl")
				b := runCmd(t, bin, w, "l2s-sim", "-net", "mlp", "-cores", "16", "-scheme", "ssmask", "-epochs", "3", "-timeline", "@ssmask.tl")
				return artifacts{"baseline.tl": a["baseline.tl"], "ssmask.tl": b["ssmask.tl"]}
			},
			validate: map[string]validator{"baseline.tl": validTimeline, "ssmask.tl": validTimeline},
			assert: func(t *testing.T, ref artifacts) {
				runCmd(t, bin, 0, "l2s-trace", "-compare", "-gate-mean-hops",
					writeArtifact(t, ref, "baseline.tl"), writeArtifact(t, ref, "ssmask.tl"))
			},
		},
		{
			name: "train-health-violation",
			capture: func(t *testing.T, w int) artifacts {
				_, err := execCmd(t, bin, "l2s-train", "-net", "mlp", "-epochs", "2", "-q", "-live", os.DevNull,
					"-health", "sim.compute_cycles.total > 0", "-workers", strconv.Itoa(w))
				if err == nil {
					t.Error("a violated health rule did not fail the run")
				}
				return artifacts{}
			},
		},
		{
			name:    "alexnet-int16",
			capture: cmd("l2s-sim", "-net", "alexnet", "-cores", "16", "-precision", "int16"),
			assert: func(t *testing.T, ref artifacts) {
				if !bytes.Contains(ref["stdout"], []byte("int16")) {
					t.Error("int16 run does not report its precision")
				}
				f32 := runCmd(t, bin, 1, "l2s-sim", "-net", "alexnet", "-cores", "16", "-precision", "float32")
				i, f := totalCompute(t, ref["stdout"]), totalCompute(t, f32["stdout"])
				if i >= f {
					t.Errorf("int16 TOTAL compute cycles %d not below float32's %d", i, f)
				}
			},
		},
	}
}

// Commands.

// execCmd runs one built command and returns its stdout; the error
// carries stderr.
func execCmd(t *testing.T, bin, name string, args ...string) ([]byte, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	c := exec.Command(filepath.Join(bin, name), args...)
	c.Stdout, c.Stderr = &stdout, &stderr
	if err := c.Run(); err != nil {
		return stdout.Bytes(), fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes(), nil
}

// runCmd runs one built command, failing the test on a non-zero exit.
// An argument "@name" is an output file: it becomes a path in a fresh
// directory, and the file's bytes become artifact "name". Stdout is
// artifact "stdout". Workers > 0 adds -workers.
func runCmd(t *testing.T, bin string, workers int, name string, args ...string) artifacts {
	t.Helper()
	dir := t.TempDir()
	args = append([]string{}, args...)
	var outs []string
	for i, a := range args {
		if strings.HasPrefix(a, "@") {
			outs = append(outs, a[1:])
			args[i] = filepath.Join(dir, a[1:])
		}
	}
	if workers > 0 {
		args = append(args, "-workers", strconv.Itoa(workers))
	}
	stdout, err := execCmd(t, bin, name, args...)
	if err != nil {
		t.Fatal(err)
	}
	arts := artifacts{"stdout": stdout}
	for _, o := range outs {
		b, err := os.ReadFile(filepath.Join(dir, o))
		if err != nil {
			t.Fatalf("%s did not write %s: %v", name, o, err)
		}
		arts[o] = b
	}
	return arts
}

// writeArtifact puts one artifact back on disk for a command to read.
func writeArtifact(t *testing.T, arts artifacts, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, arts[name], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// proc is a started command whose stderr is kept for matching against
// the log lines it announces its progress with.
type proc struct {
	cmd    *exec.Cmd
	mu     sync.Mutex
	stderr bytes.Buffer
	more   chan struct{} // poked after every stderr write
	exited chan struct{} // closed once Wait returns
	err    error
}

func startProc(t *testing.T, bin, name string, args ...string) *proc {
	t.Helper()
	p := &proc{more: make(chan struct{}, 1), exited: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(bin, name), args...)
	p.cmd.Stderr = p
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill() // fails harmlessly once the process has exited
		<-p.exited
	})
	return p
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.stderr.Write(b)
	p.mu.Unlock()
	select {
	case p.more <- struct{}{}:
	default:
	}
	return len(b), nil
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// await blocks until stderr matches re and returns the first submatch
// (or the whole match), failing the test if the process exits first.
func (p *proc) await(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.After(2 * time.Minute)
	for {
		if m := re.FindStringSubmatch(p.log()); m != nil {
			return m[len(m)-1]
		}
		select {
		case <-p.more:
		case <-p.exited:
			if m := re.FindStringSubmatch(p.log()); m != nil {
				return m[len(m)-1]
			}
			t.Fatalf("%s exited (%v) before logging %q:\n%s", p.cmd.Path, p.err, re, p.log())
		case <-deadline:
			t.Fatalf("%s never logged %q:\n%s", p.cmd.Path, re, p.log())
		}
	}
}

// wait waits for a clean exit.
func (p *proc) wait(t *testing.T) {
	t.Helper()
	select {
	case <-p.exited:
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s did not exit:\n%s", p.cmd.Path, p.log())
	}
	if p.err != nil {
		t.Fatalf("%s: %v\n%s", p.cmd.Path, p.err, p.log())
	}
}

// scrapeTraining scrapes /metrics from a training run mid-way — after
// its first epoch has logged, while later epochs still run — then
// waits for the run to finish cleanly.
func scrapeTraining(t *testing.T, bin string, workers int) artifacts {
	p := startProc(t, bin, "l2s-train", "-net", "lenet", "-epochs", "2", "-workers", strconv.Itoa(workers),
		"-pprof", "127.0.0.1:0", "-live", os.DevNull)
	addr := p.await(t, regexp.MustCompile(`profiling at http://(\S+)/debug/pprof/`))
	p.await(t, regexp.MustCompile(`epoch 0:`))
	body := httpDo(t, "GET", "http://"+addr+"/metrics", "")
	p.wait(t)
	return artifacts{"metrics.txt": body}
}

// serveHTTP runs a real server: train, listen, answer traffic, then
// drain and exit cleanly on SIGTERM. The health rule fails the run if
// the served p99 latency ever crosses 1 s in a wall-clock window.
func serveHTTP(t *testing.T, bin string, workers int) artifacts {
	p := startProc(t, bin, "l2s-serve", "-schemes", "baseline,ssmask", "-precisions", "float32,int16",
		"-epochs", "2", "-workers", strconv.Itoa(workers), "-addr", "127.0.0.1:0", "-live", os.DevNull, "-live-clock", "250ms",
		"-health", "serve.latency.p99 > 1000000")
	base := "http://" + p.await(t, regexp.MustCompile(`listening on (\S+)`))
	httpDo(t, "GET", base+"/v1/models", "")
	for i := 0; i < 20; i++ {
		httpDo(t, "POST", base+"/v1/infer", fmt.Sprintf(`{"model":"ssmask","precision":"int16","sample":%d}`, i%8))
	}
	infer := httpDo(t, "POST", base+"/v1/infer", `{"model":"baseline","sample":0}`)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.wait(t)
	return artifacts{"infer.json": infer}
}

func httpDo(t *testing.T, method, url, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{Timeout: time.Minute}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %s\n%s", method, url, resp.Status, b)
	}
	return b
}

// In-process captures.

// goldenTrain trains the golden session's MLP under scheme, reporting
// into reg when non-nil.
func goldenTrain(t *testing.T, scheme learn2scale.Scheme, reg *obs.Registry) (*learn2scale.Dataset, *learn2scale.TrainedModel) {
	t.Helper()
	ds := learn2scale.MNISTLike(80, 40, 3)
	opt := learn2scale.DefaultTrainOptions(4)
	opt.SGD.Epochs = 3
	opt.SGD.LearningRate = 0.03
	opt.Obs = reg
	m, err := learn2scale.Train(scheme, learn2scale.MLP(), ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ds, m
}

// setWorkers points the worker environment variable at n for one
// in-process capture.
func setWorkers(t *testing.T, n int) {
	t.Helper()
	t.Setenv(learn2scale.EnvWorkers, strconv.Itoa(n))
}

// observed sets the worker count and points the parallel package at a
// fresh registry for one in-process capture.
func observed(t *testing.T, workers int) *obs.Registry {
	t.Helper()
	setWorkers(t, workers)
	reg := obs.New()
	parallel.SetObs(reg)
	t.Cleanup(func() { parallel.SetObs(nil) })
	return reg
}

func recordBytes(t *testing.T, reg *obs.Registry, meta map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Record("test", meta, false).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// logitBits encodes logits as their exact bit patterns.
func logitBits(dst []byte, logits []float32) []byte {
	for _, v := range logits {
		dst = strconv.AppendUint(dst, uint64(math.Float32bits(v)), 16)
		dst = append(dst, ' ')
	}
	return append(dst, '\n')
}

// captureQuant trains SS_Mask, quantizes it to int16 and simulates;
// the int16 fast path reduces with wraparound int32 adds, so the
// record and every test input's quantized logits are bitwise
// identical at any worker count.
func captureQuant(t *testing.T, workers int) artifacts {
	reg := observed(t, workers)
	ds, m := goldenTrain(t, learn2scale.SSMask, reg)
	m.Quantize(ds, learn2scale.CalibConfig{Method: learn2scale.CalibMaxAbs})
	if _, err := m.Simulate(); err != nil {
		t.Fatal(err)
	}
	var logits []byte
	for _, x := range ds.TestX {
		logits = logitBits(logits, m.QNet.Forward(x).Data)
	}
	meta := map[string]string{"net": "mlp", "scheme": "ssmask", "precision": "int16"}
	return artifacts{"record.json": recordBytes(t, reg, meta), "logits": logits}
}

// captureGolden runs the golden session under scheme and returns its
// stable flight record. tapped attaches a deterministic live plane and
// adds its stream: windows close at serial boundaries and every
// aggregate is order-independent.
func captureGolden(t *testing.T, scheme learn2scale.Scheme, workers int, tapped bool) artifacts {
	reg := observed(t, workers)
	var stream bytes.Buffer
	var plane *live.Plane
	if tapped {
		plane = live.New(live.Config{Out: &stream}) // Clock 0: deterministic mode
		reg.SetTap(plane)
	}
	_, m := goldenTrain(t, scheme, reg)
	if _, err := m.Simulate(); err != nil {
		t.Fatal(err)
	}
	arts := artifacts{}
	if plane != nil {
		if err := plane.Close(); err != nil {
			t.Fatal(err)
		}
		arts["stream.jsonl"] = stream.Bytes()
	}
	arts["record.json"] = recordBytes(t, reg, map[string]string{"net": "mlp"})
	return arts
}

// captureProfiled runs the golden session and returns its record with
// the volatile profile attached.
func captureProfiled(t *testing.T, workers int) artifacts {
	reg := observed(t, workers)
	_, m := goldenTrain(t, learn2scale.SSMask, reg)
	if _, err := m.Simulate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Record("test", map[string]string{"net": "mlp"}, true).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return artifacts{"record.json": buf.Bytes()}
}

// captureTimeline simulates the golden session with a timeline sink:
// every stamp is a simulated cycle.
func captureTimeline(t *testing.T, workers int) artifacts {
	setWorkers(t, workers)
	_, m := goldenTrain(t, learn2scale.SSMask, nil)
	sink := learn2scale.NewTimeline()
	if _, err := m.SimulateTimeline(sink, 0); err != nil {
		t.Fatal(err)
	}
	return artifacts{"timeline.tl": timelineBytes(t, sink)}
}

// assertTapPure reruns the tapped session without the plane: tapping
// metrics must never change the record.
func assertTapPure(t *testing.T, ref artifacts) {
	untapped := captureGolden(t, learn2scale.SSMask, 1, false)["record.json"]
	if !bytes.Equal(untapped, ref["record.json"]) {
		t.Errorf("attaching a live plane changed the flight record: %s", firstDiff(untapped, ref["record.json"]))
	}
}

// captureFaultSweep runs a miniature fault sweep: its cells run
// concurrently, fault decisions are stateless hashes and every gauge
// name is fixed by grid position.
func captureFaultSweep(t *testing.T, workers int) artifacts {
	reg := observed(t, workers)
	opt := learn2scale.DefaultFaultOptions()
	opt.ImgSize = 8
	opt.Train, opt.Test = 40, 24
	opt.SGD.Epochs = 2
	opt.Rates = []float64{0, 0.05, 0.2}
	opt.RetryBudget = 1
	opt.Obs = reg
	rows, err := learn2scale.FaultSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&out, "%+v\n", r)
	}
	var rec bytes.Buffer
	if err := reg.Record("faults", map[string]string{"exp": "faults"}, false).WriteJSON(&rec); err != nil {
		t.Fatal(err)
	}
	return artifacts{"record.json": rec.Bytes(), "rows": out.Bytes()}
}

// serveScript is the in-process request script: every scheme, both
// precisions, multi-request batches and a singleton.
var serveScript = []learn2scale.ServeScriptStep{
	{Model: "baseline", Samples: []int{0, 1, 2}},
	{Model: "ssmask", Samples: []int{3, 4}},
	{Model: "ssmask", Precision: "int16", Samples: []int{3, 4}},
	{Model: "ss", Precision: "int16", Samples: []int{5}},
	{Model: "struct", Samples: []int{0, 5}},
}

func scriptRequests() int {
	n := 0
	for _, s := range serveScript {
		n += len(s.Samples)
	}
	return n
}

// servePools caches servePool's pools by worker count. The tests that
// read it run one after another, never in parallel.
var servePools = map[int][]*learn2scale.ServeModel{}

// servePool trains every scheme at both precisions at the given worker
// count, once per test binary: the serving tests serve each pool at
// the count it was trained at. Training reports into no registry, so
// the in-process records hold the serving metrics only; the
// serve-script matrix row compares records that include training.
func servePool(t *testing.T, workers int) []*learn2scale.ServeModel {
	if pool, ok := servePools[workers]; ok {
		return pool
	}
	setWorkers(t, workers)
	pool, err := learn2scale.NewServeModels(learn2scale.ServeConfig{}, learn2scale.Table4Nets(learn2scale.Quick)[0],
		learn2scale.MNISTLike(80, 40, 3),
		[]learn2scale.Scheme{learn2scale.Baseline, learn2scale.StructureLevel, learn2scale.SS, learn2scale.SSMask},
		[]learn2scale.Precision{learn2scale.Float32, learn2scale.Int16}, 4, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	servePools[workers] = pool
	return pool
}

// captureServe replays serveScript through the full serving layer over
// pool, returning the live stream, the stable record, every response's
// logit bits and, when traced, the stable serve-trace log.
func captureServe(t *testing.T, pool []*learn2scale.ServeModel, workers int, traced bool) artifacts {
	reg := observed(t, workers)
	var stream, trace bytes.Buffer
	plane := live.New(live.Config{Out: &stream})
	reg.SetTap(plane)
	cfg := learn2scale.ServeConfig{Depth: 2, Obs: reg}
	var sink *learn2scale.ServeTraceSink
	if traced {
		sink = learn2scale.NewServeTraceSink(&trace, learn2scale.ServeTraceOptions{Stable: true, Tool: "test"})
		cfg.Trace = sink
	}
	models := make([]*learn2scale.ServeModel, len(pool))
	for i, m := range pool {
		var err error
		if models[i], err = learn2scale.NewServeModel(cfg, m.TM, m.Key.Precision, m.Samples); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := learn2scale.NewServer(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.RunScript(context.Background(), serveScript)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if sink != nil {
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var logits []byte
	for _, step := range out {
		for _, resp := range step {
			logits = logitBits(logits, resp.Logits)
		}
	}
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}
	arts := artifacts{
		"stream.jsonl": stream.Bytes(),
		"record.json":  recordBytes(t, reg, map[string]string{"net": "mlp"}),
		"logits":       logits,
	}
	if traced {
		arts["trace.jsonl"] = trace.Bytes()
	}
	return arts
}

// assertServeAccounting checks the served accounting against the
// script: one response per request, the serving counters in the stable
// record, and one serve.batch window per batch in the stream.
func assertServeAccounting(t *testing.T, ref artifacts) {
	requests := scriptRequests()
	if n := bytes.Count(ref["logits"], []byte("\n")); n != requests {
		t.Errorf("script answered %d responses, want %d", n, requests)
	}
	rec := readRecord(t, ref["record.json"])
	want := map[string]int64{"serve.requests": int64(requests), "serve.responses": int64(requests), "serve.batches": int64(len(serveScript))}
	for _, c := range rec.Counters {
		if v, ok := want[c.Name]; ok {
			if c.Value != v {
				t.Errorf("record counter %s = %d, want %d", c.Name, c.Value, v)
			}
			delete(want, c.Name)
		}
	}
	for name := range want {
		t.Errorf("record is missing counter %s", name)
	}
	snaps, err := live.ReadStream(bytes.NewReader(ref["stream.jsonl"]))
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for _, s := range snaps {
		if s.Label == "serve.batch" {
			batches++
		}
	}
	if batches != len(serveScript) {
		t.Errorf("%d serve.batch windows, want %d", batches, len(serveScript))
	}
}

// assertTracePure checks that the traced capture's log records every
// batch and request, and that tracing is a pure observer: without the
// sink the stream, record and logits stay byte for byte the same.
func assertTracePure(t *testing.T, ref, untraced artifacts) {
	tlog, err := learn2scale.ReadServeTraceLog(bytes.NewReader(ref["trace.jsonl"]))
	if err != nil {
		t.Fatal(err)
	}
	if requests := scriptRequests(); len(tlog.Batches) != len(serveScript) || len(tlog.Reqs) != requests {
		t.Errorf("trace has %d batches and %d requests, want %d and %d", len(tlog.Batches), len(tlog.Reqs), len(serveScript), requests)
	}
	for _, name := range []string{"stream.jsonl", "record.json", "logits"} {
		if !bytes.Equal(untraced[name], ref[name]) {
			t.Errorf("%s differs with tracing attached: %s", name, firstDiff(untraced[name], ref[name]))
		}
	}
}

// captureTimelinePurity simulates the trained golden model with and
// without a timeline sink.
func captureTimelinePurity(t *testing.T, workers int) artifacts {
	setWorkers(t, workers)
	_, m := goldenTrain(t, learn2scale.SSMask, nil)
	base, err := m.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	sink := learn2scale.NewTimeline()
	traced, err := m.SimulateTimeline(sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	return artifacts{"report": jsonBytes(t, traced), "report.untraced": jsonBytes(t, base), "timeline.tl": timelineBytes(t, sink)}
}

// assertTimelinePurity: the traced report equals the untraced one,
// and a fault-free timeline has traffic, compute and ordered sections
// but no retransmission or loss.
func assertTimelinePurity(t *testing.T, ref artifacts) {
	if !bytes.Equal(ref["report"], ref["report.untraced"]) {
		t.Errorf("timeline sink changed the simulation report:\nbase   %s\ntraced %s", ref["report.untraced"], ref["report"])
	}
	tl, err := learn2scale.ReadTimeline(bytes.NewReader(ref["timeline.tl"]))
	if err != nil {
		t.Fatal(err)
	}
	a, err := learn2scale.AnalyzeTimeline(tl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Retransmits != 0 || a.LostPackets != 0 {
		t.Errorf("fault-free timeline has %d retransmits, %d lost packets", a.Retransmits, a.LostPackets)
	}
	if a.Overall.Packets == 0 || a.ComputeCycles == 0 || len(a.Sections) == 0 {
		t.Errorf("timeline empty: %d packets, %d compute cycles, %d sections", a.Overall.Packets, a.ComputeCycles, len(a.Sections))
	}
	for i, sec := range a.Sections {
		if sec.Index != i {
			t.Errorf("section %d has index %d", i, sec.Index)
		}
	}
}

var purePipeline = learn2scale.PipelineOptions{Depth: 2, Batches: 3}

// capturePipelinePurity pipelines the trained golden model with and
// without a timeline sink.
func capturePipelinePurity(t *testing.T, workers int) artifacts {
	setWorkers(t, workers)
	_, m := goldenTrain(t, learn2scale.SSMask, nil)
	base, err := m.SimulatePipeline(purePipeline, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := learn2scale.NewTimeline()
	traced, err := m.SimulatePipeline(purePipeline, sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	layers := strconv.Itoa(len(base.Inference.Layers))
	return artifacts{"report": jsonBytes(t, traced), "report.untraced": jsonBytes(t, base),
		"timeline.tl": timelineBytes(t, sink), "layers": []byte(layers)}
}

// assertPipelinePurity: the traced report equals the untraced one, and
// the record has one section per (batch, layer) tagged with the stage
// and batch that ran it.
func assertPipelinePurity(t *testing.T, ref artifacts) {
	if !bytes.Equal(ref["report"], ref["report.untraced"]) {
		t.Errorf("timeline sink changed the pipeline report:\nbase   %s\ntraced %s", ref["report.untraced"], ref["report"])
	}
	tl, err := learn2scale.ReadTimeline(bytes.NewReader(ref["timeline.tl"]))
	if err != nil {
		t.Fatal(err)
	}
	layers, _ := strconv.Atoi(string(ref["layers"]))
	if want := purePipeline.Batches * layers; len(tl.Sections) != want {
		t.Fatalf("%d timeline sections, want %d (batches x layers)", len(tl.Sections), want)
	}
	maxStage, maxBatch := 0, 0
	for _, sec := range tl.Sections {
		maxStage, maxBatch = max(maxStage, sec.Stage), max(maxBatch, sec.Batch)
	}
	if maxStage != purePipeline.Depth-1 || maxBatch != purePipeline.Batches-1 {
		t.Errorf("max section stage %d and batch %d, want %d and %d", maxStage, maxBatch, purePipeline.Depth-1, purePipeline.Batches-1)
	}
}

func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func timelineBytes(t *testing.T, sink *learn2scale.TimelineSink) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sink.WriteRecord(&buf, "test", map[string]string{"net": "mlp", "scheme": "ssmask"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Validators and row helpers.

// validRecord: the flight record parses, is non-empty, and writes
// back byte for byte.
func validRecord(b []byte) error {
	rec, err := obs.ReadRecord(bytes.NewReader(b))
	if err != nil {
		return err
	}
	if rec.Snapshot.Empty() {
		return errors.New("flight record is empty")
	}
	var back bytes.Buffer
	if err := rec.WriteJSON(&back); err != nil {
		return err
	}
	if !bytes.Equal(back.Bytes(), b) {
		return fmt.Errorf("record changed across a read+write round trip: %s", firstDiff(b, back.Bytes()))
	}
	return nil
}

func validStream(minWindows int) validator {
	return func(b []byte) error {
		snaps, err := live.ReadStream(bytes.NewReader(b))
		if err != nil {
			return err
		}
		if len(snaps) < minWindows {
			return fmt.Errorf("%d windows, want >= %d", len(snaps), minWindows)
		}
		return nil
	}
}

// validTimeline: the compact record passes ReadRecord's validation
// (dense sections, exact event counts, monotone per-packet stamps),
// analyzes, and is non-empty.
func validTimeline(b []byte) error {
	tl, err := timeline.ReadRecord(bytes.NewReader(b))
	if err != nil {
		return err
	}
	if _, err := timeline.Analyze(tl); err != nil {
		return err
	}
	for _, s := range tl.Sections {
		if len(s.Events) > 0 {
			return nil
		}
	}
	return errors.New("timeline record is empty")
}

func validPerfetto(b []byte) error { return timeline.ValidatePerfetto(bytes.NewReader(b)) }

func validServeRecord(b []byte) error {
	rec, err := obs.ReadRecord(bytes.NewReader(b))
	if err != nil {
		return err
	}
	return serve.ValidateRecord(rec)
}

func validServeStream(b []byte) error {
	snaps, err := live.ReadStream(bytes.NewReader(b))
	if err != nil {
		return err
	}
	return serve.ValidateStream(snaps)
}

// validServeTrace: ReadTraceLog enforces the trace contract (requests
// attached to declared batches, completion cycles inside the batch's
// span; wall mode telescopes exactly, stable mode carries no volatile
// field); the log must also record batches in the expected class.
func validServeTrace(wall bool) validator {
	return func(b []byte) error {
		tlog, err := serve.ReadTraceLog(bytes.NewReader(b))
		if err != nil {
			return err
		}
		if len(tlog.Batches) == 0 {
			return errors.New("serve-trace log records no batches")
		}
		if tlog.Wall != wall {
			return fmt.Errorf("wall-clock phases %v, want %v", tlog.Wall, wall)
		}
		return nil
	}
}

func validProm(b []byte) error {
	if len(b) == 0 {
		return errors.New("empty exposition")
	}
	return errors.Join(live.Lint(bytes.NewReader(b))...)
}

func validCSV(b []byte) error {
	recs, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		return err
	}
	if len(recs) < 2 {
		return fmt.Errorf("%d CSV rows, want a header and data", len(recs))
	}
	return nil
}

func validInferResponse(b []byte) error {
	var resp struct {
		Model  string    `json:"model"`
		Logits []float32 `json:"logits"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return err
	}
	if resp.Model != "baseline" || len(resp.Logits) == 0 {
		return fmt.Errorf("answer for model %q with %d logits", resp.Model, len(resp.Logits))
	}
	return nil
}

func nonEmpty(b []byte) error {
	if len(bytes.TrimSpace(b)) == 0 {
		return errors.New("empty")
	}
	return nil
}

func readRecord(t *testing.T, b []byte) obs.FlightRecord {
	t.Helper()
	rec, err := obs.ReadRecord(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// requireSections: a train-then-simulate record carries NoC counters,
// a packet-latency histogram with at least four buckets, per-epoch
// training gauges and per-layer simulation gauges.
func requireSections(t *testing.T, b []byte) {
	rec := readRecord(t, b)
	counters := map[string]bool{}
	for _, c := range rec.Counters {
		counters[c.Name] = true
	}
	for _, name := range []string{"noc.packets", "noc.flits"} {
		if !counters[name] {
			t.Errorf("record has no %s counter", name)
		}
	}
	buckets := -1
	for _, h := range rec.Histograms {
		if h.Name == "noc.packet_latency_cycles" {
			buckets = len(h.Counts)
		}
	}
	if buckets < 4 {
		t.Errorf("packet-latency histogram has %d buckets, want >= 4", buckets)
	}
	epoch, layer := false, false
	for _, g := range rec.Gauges {
		epoch = epoch || strings.Contains(g.Name, ".epoch.")
		layer = layer || strings.Contains(g.Name, "sim.layer.")
	}
	if !epoch {
		t.Error("record has no per-epoch training gauges")
	}
	if !layer {
		t.Error("record has no per-layer simulation gauges")
	}
}

// requireWorkerProfile: a record written with its volatile profile
// carries per-worker pool utilization.
func requireWorkerProfile(t *testing.T, b []byte) {
	rec := readRecord(t, b)
	if rec.Profile == nil {
		t.Fatal("record has no profile section")
	}
	for _, c := range rec.Profile.Counters {
		if strings.HasPrefix(c.Name, "parallel.worker.") {
			return
		}
	}
	t.Error("no per-worker pool utilization in the profile")
}

var totalLine = regexp.MustCompile(`(?m)^TOTAL\s+(\d+)`)

// totalCompute reads the TOTAL compute cycles off an l2s-sim table.
func totalCompute(t *testing.T, stdout []byte) int64 {
	t.Helper()
	m := totalLine.FindSubmatch(stdout)
	if m == nil {
		t.Fatalf("no TOTAL row in:\n%s", stdout)
	}
	n, _ := strconv.ParseInt(string(m[1]), 10, 64)
	return n
}

package noc_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"learn2scale/internal/fault"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/noc"
	"learn2scale/internal/partition"
	"learn2scale/internal/timeline"
	"learn2scale/internal/topology"
)

// goldenDigest is one case's fingerprint: SHA-256 of the JSON of every
// Result (and, where a case has them, lost transfers and session end
// cycles), of the per-link LinkStats, and of the timeline record bytes.
type goldenDigest struct {
	Result   string `json:"result"`
	Links    string `json:"links"`
	Timeline string `json:"timeline"`
}

// goldenRun accumulates a case's outputs run by run.
type goldenRun struct {
	results []any
	links   []noc.LinkStats
	sink    *timeline.Sink
}

func (g *goldenRun) digest(t *testing.T) goldenDigest {
	t.Helper()
	sum := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	var rec bytes.Buffer
	if err := g.sink.WriteRecord(&rec, "golden", nil); err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(rec.Bytes())
	return goldenDigest{Result: sum(g.results), Links: sum(g.links), Timeline: hex.EncodeToString(h[:])}
}

// goldenBursts runs each burst on one simulator, each into its own
// timeline section, and records the Result, lost transfers and link
// stats of every run.
func goldenBursts(t *testing.T, cfg noc.Config, bursts [][]noc.Message) goldenDigest {
	t.Helper()
	g := &goldenRun{sink: timeline.NewSink()}
	g.sink.SetPlatform(cfg.TimelinePlatform())
	sim := noc.MustNew(cfg)
	var retx int64
	for k, msgs := range bursts {
		sim.SetFaultSalt(int64(k))
		sim.SetTimelineSection(g.sink.Section("burst"))
		res, err := sim.RunBurst(msgs)
		if err != nil {
			t.Fatal(err)
		}
		g.results = append(g.results, res, sim.LostTransfers())
		g.links = append(g.links, sim.LinkUtilization())
		retx += res.Retransmits
	}
	if cfg.Fault != nil && cfg.Fault.DropProb > 0 && retx == 0 {
		t.Error("transient-fault case scheduled no retransmits")
	}
	return g.digest(t)
}

func allToAll(m topology.Mesh, bytes func(s, d int) int) []noc.Message {
	var msgs []noc.Message
	for s := 0; s < m.Nodes(); s++ {
		for d := 0; d < m.Nodes(); d++ {
			if s != d {
				msgs = append(msgs, noc.Message{Src: s, Dst: d, Bytes: bytes(s, d)})
			}
		}
	}
	return msgs
}

// goldenCases are the pinned NoC scenarios: AlexNet layer-transition
// bursts, an overlapping session, transient faults with retransmits,
// dead links under up*/down* routing, the VC-count ablation, and a
// seeded spread of small configs.
var goldenCases = []struct {
	name string
	run  func(t *testing.T) goldenDigest
}{
	{"alexnet-all-to-all", func(t *testing.T) goldenDigest {
		plan := partition.NewPlan(netzoo.AlexNet(), 16)
		var bursts [][]noc.Message
		for k := 1; k < len(plan.Layers); k++ {
			bursts = append(bursts, plan.LayerTraffic(k).Messages())
		}
		return goldenBursts(t, noc.DefaultConfig(topology.NewMesh(4, 4)), bursts)
	}},
	{"session-overlap-3", func(t *testing.T) goldenDigest {
		m := topology.NewMesh(4, 4)
		cfg := noc.DefaultConfig(m)
		g := &goldenRun{sink: timeline.NewSink()}
		g.sink.SetPlatform(cfg.TimelinePlatform())
		bursts := [][]noc.Message{
			allToAll(m, func(s, d int) int { return 512 + 64*((s+d)%5) }),
			allToAll(m, func(s, d int) int { return 200 + 40*s }),
			allToAll(m, func(s, d int) int { return 96 * (1 + d%3) }),
		}
		sim := noc.MustNew(cfg)
		ses := sim.Begin(cfg.MaxCycles)
		for k, msgs := range bursts {
			if _, err := ses.Inject(msgs, int64(60*k), int64(k), g.sink.Section("group")); err != nil {
				t.Fatal(err)
			}
		}
		for range bursts {
			gi, end, err := ses.Next()
			if err != nil {
				t.Fatal(err)
			}
			if k := int64(60 * (len(bursts) - 1)); end <= k {
				t.Errorf("group %d resolved at %d, before the last group's inject at %d: no overlap", gi, end, k)
			}
			g.results = append(g.results, gi, end, ses.Result(gi), ses.Lost(gi))
		}
		g.links = append(g.links, sim.LinkUtilization())
		return g.digest(t)
	}},
	{"transient-faults", func(t *testing.T) goldenDigest {
		m := topology.NewMesh(4, 4)
		cfg := noc.DefaultConfig(m)
		cfg.Fault = &fault.Config{Seed: 5, DropProb: 0.05, RetryBudget: 2,
			SlowLinks: []fault.Link{{A: 1, B: 2}, {A: 6, B: 10}}, SlowExtraCycles: 3}
		return goldenBursts(t, cfg, [][]noc.Message{
			allToAll(m, func(s, d int) int { return 900 }),
			allToAll(m, func(s, d int) int { return 1800 }),
		})
	}},
	{"random-configs", func(t *testing.T) goldenDigest {
		// Small configs across the fuzzer's parameter space, with
		// time-staggered bursts: every VC count, buffer depth, plane
		// count and pipeline depth the allocator can see at this scale.
		rng := rand.New(rand.NewSource(14))
		g := &goldenRun{sink: timeline.NewSink()}
		for i := 0; i < 16; i++ {
			cfg := noc.DefaultConfig(topology.NewMesh(1+rng.Intn(4), 1+rng.Intn(4)))
			cfg.VCs = 1 + rng.Intn(4)
			cfg.BufDepth = 1 + rng.Intn(8)
			cfg.Planes = 1 + rng.Intn(2)
			cfg.Stages = 1 + rng.Intn(3)
			if i%3 == 0 {
				cfg.Fault = &fault.Config{Seed: int64(i), DropProb: 0.1, RetryBudget: 2}
			}
			n := cfg.Mesh.Nodes()
			msgs := make([]noc.Message, 1+rng.Intn(40))
			for j := range msgs {
				msgs[j] = noc.Message{Src: rng.Intn(n), Dst: rng.Intn(n),
					Bytes: rng.Intn(3000), Time: int64(rng.Intn(200))}
			}
			sim := noc.MustNew(cfg)
			sim.SetTimelineSection(g.sink.Section("cfg"))
			res, err := sim.RunBurst(msgs)
			if err != nil {
				t.Fatal(err)
			}
			g.results = append(g.results, res, sim.LostTransfers())
			g.links = append(g.links, sim.LinkUtilization())
		}
		return g.digest(t)
	}},
	{"dead-links-updown", func(t *testing.T) goldenDigest {
		m := topology.NewMesh(4, 4)
		cfg := noc.DefaultConfig(m)
		cfg.Fault = &fault.Config{DeadLinks: []fault.Link{{A: 5, B: 6}, {A: 9, B: 10}, {A: 2, B: 6}}}
		return goldenBursts(t, cfg, [][]noc.Message{allToAll(m, func(s, d int) int { return 900 })})
	}},
	{"ablation-vcs", func(t *testing.T) goldenDigest {
		// The NoC-parameter sweep's VC rows: LeNet's first layer
		// transition on 16 cores at 1-4 VCs.
		msgs := partition.NewPlan(netzoo.LeNet(), 16).LayerTraffic(1).Messages()
		g := &goldenRun{sink: timeline.NewSink()}
		for vcs := 1; vcs <= 4; vcs++ {
			cfg := noc.DefaultConfig(topology.ForCores(16))
			cfg.VCs = vcs
			sim := noc.MustNew(cfg)
			sim.SetTimelineSection(g.sink.Section("vcs"))
			res, err := sim.RunBurst(msgs)
			if err != nil {
				t.Fatal(err)
			}
			g.results = append(g.results, res)
			g.links = append(g.links, sim.LinkUtilization())
		}
		return g.digest(t)
	}},
}

// TestGoldenNoC pins the simulator's exact output across commits: every
// case's Result, LinkStats and timeline record bytes must hash to the
// digests in testdata/golden.json. Those digests were generated by
// running these cases on commit 124a6c8 — the dense switch allocator
// that scanned every router, output port and (input port, VC) slot each
// cycle — and encoding the resulting map as JSON. A change to the
// simulator that moves a single cycle, grant, link count or timeline
// event fails here; the got-map is printed so an intended change can
// regenerate the file.
func TestGoldenNoC(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]goldenDigest{}
	for _, c := range goldenCases {
		got[c.name] = c.run(t)
	}
	if !reflect.DeepEqual(got, want) {
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s: digests %+v, golden %+v", name, got[name], w)
			}
		}
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("NoC output differs from testdata/golden.json; current digests:\n%s", b)
	}
}

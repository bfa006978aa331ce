package noc

import (
	"reflect"
	"testing"

	"learn2scale/internal/fault"
	"learn2scale/internal/topology"
)

// fuzzBurst decodes a fuzz input into a small NoC config and a
// time-staggered burst: a mesh up to 4x4, 1-4 VCs, buffer depth 1-8,
// 1-2 planes, 1-3 router stages, and (for most nonzero drop bytes) a
// transient fault rate below 25%. Each 4 bytes of raw make one message:
// source, destination, size in 16-byte units, and injection time in
// 4-cycle units; at most 16 messages are used.
func fuzzBurst(w, h, vcs, depth, planes, stages, drop uint8, raw []byte) (Config, []Message) {
	cfg := DefaultConfig(topology.NewMesh(1+int(w%4), 1+int(h%4)))
	cfg.VCs = 1 + int(vcs%4)
	cfg.BufDepth = 1 + int(depth%8)
	cfg.Planes = 1 + int(planes%2)
	cfg.Stages = 1 + int(stages%3)
	// Small enough that a deadlock fails fast, far above any drain time
	// these bursts can reach.
	cfg.MaxCycles = 1_000_000
	if drop > 0 {
		cfg.Fault = &fault.Config{Seed: int64(drop), DropProb: float64(drop%25) / 100, RetryBudget: 2}
	}
	n := cfg.Mesh.Nodes()
	var msgs []Message
	for i := 0; i+4 <= len(raw) && len(msgs) < 16; i += 4 {
		msgs = append(msgs, Message{
			Src:   int(raw[i]) % n,
			Dst:   int(raw[i+1]) % n,
			Bytes: int(raw[i+2]) * 16,
			Time:  int64(raw[i+3]) * 4,
		})
	}
	return cfg, msgs
}

// checkDrained asserts that a finished run left the network exactly as
// a fresh simulator starts: every VC empty and unowned, every credit
// returned, every injection queue consumed and dropped.
func checkDrained(t *testing.T, s *Simulator) {
	t.Helper()
	for p := range s.planes {
		pl := &s.planes[p]
		if pl.buffered != 0 {
			t.Fatalf("plane %d: %d flits still buffered", p, pl.buffered)
		}
		for id := range pl.routers {
			r := &pl.routers[id]
			if pl.occ[id] != 0 || pl.injVC[id] != -1 || pl.nodeHead[id] != 0 || len(pl.nodeQueue[id]) != 0 {
				t.Fatalf("plane %d node %d: occ %d, injVC %d, queue head %d of %d",
					p, id, pl.occ[id], pl.injVC[id], pl.nodeHead[id], len(pl.nodeQueue[id]))
			}
			for slot, vc := range r.vcs {
				if vc.n != 0 || vc.owner != -1 || vc.outPort != -1 {
					t.Fatalf("plane %d node %d slot %d: n %d, owner %d, outPort %d",
						p, id, slot, vc.n, vc.owner, vc.outPort)
				}
			}
			for op := range r.credits {
				for v, c := range r.credits[op] {
					if c != s.cfg.BufDepth {
						t.Fatalf("plane %d node %d port %d VC %d: %d credits, want %d",
							p, id, op, v, c, s.cfg.BufDepth)
					}
				}
			}
		}
	}
}

// runChecked runs msgs on s and returns the Result, lost transfers and
// link stats, failing on a simulator error.
func runChecked(t *testing.T, s *Simulator, salt int64, msgs []Message) (Result, []LostTransfer, LinkStats) {
	t.Helper()
	s.SetFaultSalt(salt)
	res, err := s.RunBurst(msgs)
	if err != nil {
		t.Fatal(err)
	}
	return res, s.LostTransfers(), s.LinkUtilization()
}

// FuzzNoCBurst checks the simulator's invariants on random small
// configs and bursts: every packet is ejected or lost; flit, buffer and
// credit accounting balance after the drain; fast-forward equals dense
// cycle-by-cycle ticking; a reused simulator equals a fresh one; and
// session groups run strictly one after another equal independent
// RunBursts.
func FuzzNoCBurst(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(2), uint8(7), uint8(1), uint8(2), uint8(0),
		[]byte{0, 15, 40, 0, 15, 0, 40, 0, 3, 12, 200, 5, 12, 3, 90, 60})
	f.Add(uint8(0), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0),
		[]byte{0, 3, 255, 0, 3, 0, 255, 0, 1, 2, 17, 1, 2, 1, 64, 200})
	f.Add(uint8(1), uint8(1), uint8(3), uint8(2), uint8(1), uint8(1), uint8(13),
		[]byte{0, 3, 120, 0, 1, 2, 120, 0, 2, 1, 120, 9, 3, 0, 120, 9, 0, 0, 50, 1})
	f.Add(uint8(3), uint8(2), uint8(1), uint8(3), uint8(0), uint8(2), uint8(24),
		[]byte{5, 6, 255, 0, 6, 5, 255, 0, 0, 11, 255, 30, 11, 0, 255, 30, 7, 4, 0, 0})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), []byte{0, 0, 10, 0})

	f.Fuzz(func(t *testing.T, w, h, vcs, depth, planes, stages, drop uint8, raw []byte) {
		cfg, msgs := fuzzBurst(w, h, vcs, depth, planes, stages, drop, raw)

		fresh := MustNew(cfg)
		res, lost, links := runChecked(t, fresh, 0, msgs)
		checkDrained(t, fresh)
		if res.Packets != res.EjectedPackets+res.LostPackets {
			t.Errorf("%d packets != %d ejected + %d lost", res.Packets, res.EjectedPackets, res.LostPackets)
		}
		if res.BufferWrites != res.BufferReads || res.BufferReads != res.SwitchTraversals ||
			res.SwitchTraversals != res.Flits+res.LinkTraversals {
			t.Errorf("flit accounting: writes %d, reads %d, switch %d, flits %d + links %d",
				res.BufferWrites, res.BufferReads, res.SwitchTraversals, res.Flits, res.LinkTraversals)
		}
		if res.Retransmits == 0 && res.LostPackets == 0 {
			var flits, hops int64
			for _, m := range msgs {
				if m.Src != m.Dst && m.Bytes > 0 {
					n := int64(flitsForBytes(cfg, m.Bytes))
					flits += n
					hops += n * int64(cfg.Mesh.HopDist(m.Src, m.Dst))
				}
			}
			if res.Flits != flits || res.LinkTraversals != hops {
				t.Errorf("flits %d, link traversals %d; want %d and %d (XY minimal)",
					res.Flits, res.LinkTraversals, flits, hops)
			}
		}

		dense := MustNew(cfg)
		dense.noFastForward = true
		dres, dlost, dlinks := runChecked(t, dense, 0, msgs)
		if dres != res || !reflect.DeepEqual(dlost, lost) || !reflect.DeepEqual(dlinks, links) {
			t.Errorf("dense ticking diverged:\nff    %+v\ndense %+v", res, dres)
		}

		// Reuse: a different burst first (every message reversed), then
		// this one on the same simulator.
		rev := make([]Message, len(msgs))
		for i, m := range msgs {
			rev[i] = Message{Src: m.Dst, Dst: m.Src, Bytes: m.Bytes + 64, Time: m.Time / 2}
		}
		runChecked(t, fresh, 1, rev)
		rres, rlost, rlinks := runChecked(t, fresh, 0, msgs)
		if rres != res || !reflect.DeepEqual(rlost, lost) || !reflect.DeepEqual(rlinks, links) {
			t.Errorf("reused simulator diverged:\nfresh  %+v\nreused %+v", res, rres)
		}

		// Sequential session groups: the burst's halves (and the reversed
		// burst), each injected at the cycle the previous group resolved.
		groups := [][]Message{msgs[:len(msgs)/2], msgs[len(msgs)/2:], rev}
		ses := fresh.Begin(cfg.MaxCycles)
		var at int64
		for k, g := range groups {
			want, wantLost, _ := runChecked(t, MustNew(cfg), int64(k), g)
			gi, err := ses.Inject(g, at, int64(k), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, end, err := ses.Next()
			if err != nil {
				t.Fatal(err)
			}
			if got != gi || ses.Result(got) != want || !reflect.DeepEqual(ses.Lost(got), wantLost) {
				t.Errorf("session group %d differs from its RunBurst:\nburst   %+v\nsession %+v",
					k, want, ses.Result(got))
			}
			at = end
		}
		checkDrained(t, fresh)
	})
}

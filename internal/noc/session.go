package noc

import (
	"fmt"

	"learn2scale/internal/timeline"
)

// Session runs many message bursts ("groups") on one simulated clock,
// letting them overlap in the network — the substrate of the pipelined
// CMP scheduler (internal/cmp.RunPipeline), where one stage's transfer
// burst drains while another stage's next burst is already in flight.
//
// The contract mirrors RunBurst per group: each group gets its own
// packet-id space (ids restart at 0), fault salt, timeline section
// (event stamps relative to the group's inject cycle) and Result, so a
// session whose groups happen to run strictly one after another is
// bit-identical — results, obs metrics, timeline events — to the same
// bursts run through independent RunBurst calls. Two mechanisms carry
// that equivalence:
//
//   - Idle renormalization: when a new group is injected into a
//     completely quiescent network (no flit buffered, every NI queue
//     consumed), the round-robin arbitration pointers reset and the
//     consumed queue tails are dropped, leaving state indistinguishable
//     from a freshly reset simulator. Renormalization never fires while
//     anything is in flight, so overlapping groups keep exact shared-
//     resource contention.
//   - Unique VC ownership: groups reuse packet ids, so virtual-channel
//     buffers are claimed by a simulator-unique uid instead of the id.
//
// A Session is single-threaded and is invalidated by the next
// Begin/RunBurst call on the simulator.
type Session struct {
	sim     *Simulator
	now     int64
	horizon int64
}

// Begin resets the simulator and starts a session whose clock may run
// to horizon cycles (the config's MaxCycles plays this role for
// RunBurst; a session carrying many bursts needs a longer one). Any
// previous session or RunBurst state is discarded.
func (s *Simulator) Begin(horizon int64) *Session {
	s.reset()
	s.sess = true
	s.groups = s.groups[:0]
	return &Session{sim: s, horizon: horizon}
}

// Now returns the session clock: every cycle before it has been fully
// simulated. Next advances it; Inject never does.
func (ss *Session) Now() int64 { return ss.now }

// Inject schedules one burst group: msgs enter their source NI queues
// at absolute cycle at (plus each message's own Time offset), faulted
// under salt, traced into sec (nil = untraced; stamps are relative to
// at). Returns the group id. A group whose messages carry no traffic —
// empty, filtered, or all lost to disconnected endpoints — resolves
// immediately at cycle at.
func (ss *Session) Inject(msgs []Message, at, salt int64, sec *timeline.Section) (int, error) {
	s := ss.sim
	if !s.sess {
		return 0, fmt.Errorf("noc: Inject outside a session (call Begin first)")
	}
	if at < ss.now {
		return 0, fmt.Errorf("noc: session inject at cycle %d, clock already at %d", at, ss.now)
	}
	s.maybeRenormalize()
	need, err := s.countPackets(msgs)
	if err != nil {
		return 0, err
	}
	gi := int32(len(s.groups))
	s.groups = append(s.groups, groupState{sec: sec, base: at, salt: salt})
	g := &s.groups[gi]
	if sec != nil {
		g.links = make([]tlInterval, s.linkScratchSize())
	}
	// Each group gets its own exact-size arena: the injection queues
	// hold pointers into it, and queues of concurrent groups outlive any
	// shared scratch.
	s.buildGroup(gi, msgs, at, make([]packet, need))
	if g.res.Packets == 0 {
		s.resolveGroup(gi, at)
		return int(gi), nil
	}
	s.live++
	// Re-sort the unconsumed queue tails so the new entries merge by
	// (time, id). A head packet that is mid-injection (injSeq > 0) is
	// pinned: its time is in the past, but a same-cycle tie against a
	// fresh group's id 0 could otherwise displace it.
	for p := range s.planes {
		pl := &s.planes[p]
		for n := range pl.nodeQueue {
			from := pl.nodeHead[n]
			if pl.injSeq[n] > 0 {
				from++
			}
			if tail := pl.nodeQueue[n][from:]; len(tail) > 1 {
				sortInjQueue(tail)
			}
		}
	}
	return int(gi), nil
}

// Next advances the simulation until some group fully resolves (every
// packet delivered or terminally lost) and returns its id and the
// absolute cycle it resolved at. Groups that resolved while an earlier
// Next was stepping are reported first, in resolution order. It is an
// error to call Next with no unresolved groups outstanding, or for the
// session clock to exceed the session's horizon.
func (ss *Session) Next() (group int, end int64, err error) {
	s := ss.sim
	if !s.sess {
		return 0, 0, fmt.Errorf("noc: Next outside a session (call Begin first)")
	}
	// Only a resolution adds to resolved or lowers live, so with nothing
	// resolved and nothing live no amount of stepping can report a group.
	if len(s.resolved) == 0 && s.live == 0 {
		return 0, 0, fmt.Errorf("noc: session has no unresolved groups")
	}
	now, ok := s.advance(ss.now, ss.horizon, func() bool { return len(s.resolved) > 0 })
	ss.now = now
	if !ok {
		return 0, 0, fmt.Errorf("noc: session did not resolve a group within %d cycles", ss.horizon)
	}
	gi := s.resolved[0]
	s.resolved = s.resolved[1:]
	// A zero-traffic group's endCycle (its inject cycle) may lie ahead
	// of the session clock; the clock stays put — those cycles still
	// need simulating for the groups that do carry traffic.
	return int(gi), s.groups[gi].endCycle, nil
}

// Result returns the resolved group's statistics. Cycles is the
// group's own drain time (end − inject cycle). Calling it on an
// unresolved group returns the partial counts accumulated so far.
func (ss *Session) Result(group int) Result {
	return ss.sim.groups[group].res
}

// Lost returns the deduplicated, sorted (Src, Dst) transfers of the
// group that the network failed to deliver.
func (ss *Session) Lost(group int) []LostTransfer {
	return dedupLost(ss.sim.groups[group].lost)
}

// maybeRenormalize resets arbitration state when the network is
// completely quiescent: no flit buffered on any plane and every NI
// queue empty. Credits, VC ownership and injection state are already
// back at their initial values by the flow-control invariants (every
// buffered flit was popped, returning its credit; tails release VC
// ownership; a consumed queue is dropped the cycle its last flit
// injects), so after the reset the simulator is indistinguishable from
// a freshly constructed one — the property that makes strictly
// sequential session groups bit-identical to independent RunBursts. It
// never fires mid-flight, so overlapping groups are untouched.
func (s *Simulator) maybeRenormalize() {
	for p := range s.planes {
		pl := &s.planes[p]
		if pl.buffered != 0 {
			return
		}
		for _, q := range pl.nodeQueue {
			if len(q) > 0 {
				return
			}
		}
	}
	for p := range s.planes {
		for i := range s.planes[p].routers {
			s.planes[p].routers[i].rrPtr = [numPorts]int{}
		}
	}
}

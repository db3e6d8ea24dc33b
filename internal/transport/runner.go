package transport

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

// runShared is what the n runners of one run share, serialised by mu:
// the run's counters, its tracer (nil: none) and its network model (nil:
// ideal).
type runShared struct {
	mu       sync.Mutex
	counters *metrics.Counters
	tracer   sim.Tracer
	net      sim.Network
}

// runner drives one sim.Process over a Transport, recovering lockstep
// rounds with a DONE-marker barrier. Every node of a cluster runs its own
// runner on its own goroutine; together they execute exactly the runs the
// simulator executes, message for message and round for round.
type runner struct {
	tr   Transport
	proc sim.Process
	*runShared
}

// doneQuiet in a DONE marker's kind field says its sender was quiet in
// that round: finished, with nothing of its own still in flight.
const doneQuiet model.MessageKind = 1

// run executes up to maxRounds lockstep rounds and returns the number
// executed. It stops after the first round in which this node and every
// peer were quiet — the lockstep engine's early exit, decided from the
// same facts — so all runners of a cluster stop together.
//
// Every outgoing message is offered to the network model exactly as the
// engine offers it (after From/Round stamping, before counting). A lost
// message is counted and never shipped; a delayed one is restamped with
// its effective send round and shipped at once, and the receiver's
// stamp+1 buffering delivers it late, matching the engine's delivery
// queue. DONE barriers are never degraded: the paper's synchrony bound is
// modeled inside the round structure, not by breaking it.
//
// It must run concurrently on every node of the cluster; the barrier
// blocks (until transport close) if a peer never participates, so
// callers close the transport on timeout — in the paper's model N1 rules
// lost messages out, and the demos inherit that assumption.
func (r *runner) run(maxRounds int) (int, error) {
	self := r.tr.Self()
	peers := r.tr.Peers()
	finisher, _ := r.proc.(sim.Finisher)

	// Frames admitted ahead of their round (a faster peer may race ahead
	// by one barrier; a delayed message by its delay): messages by
	// delivery round, and per round each peer's DONE with its quiet bit.
	pendingMsgs := make(map[int][]model.Message)
	pendingDone := make(map[int]map[model.NodeID]bool)
	// lastStamp is the highest round stamped on a message this node
	// shipped: until the round after it, that message is in flight.
	lastStamp := 0
	var ship []model.Message

	for round := 1; round <= maxRounds; round++ {
		inbox := pendingMsgs[round]
		delete(pendingMsgs, round)
		sim.SortMessages(inbox)
		if r.tracer != nil && len(inbox) > 0 {
			r.mu.Lock()
			for _, m := range inbox {
				r.tracer.Delivered(m)
			}
			r.mu.Unlock()
		}

		out := r.proc.Step(round, inbox)
		ship = ship[:0]
		r.mu.Lock()
		for _, m := range out {
			if !m.To.Valid(len(peers)+1) || m.To == self {
				continue
			}
			m.From = self
			m.Round = round
			if r.net != nil {
				d := r.net.Fate(m, round)
				if d < 0 {
					// Lost on the wire: counted as sent (the sender did the
					// work), never shipped — exactly the engine's drop path.
					r.counters.Record(m)
					continue
				}
				m.Round += d
			}
			r.counters.Record(m)
			lastStamp = max(lastStamp, m.Round)
			ship = append(ship, m)
		}
		r.mu.Unlock()
		for _, m := range ship {
			if err := r.tr.Send(m.To, encodeFrame(frameMessage, m.Round, m.Kind, m.Payload)); err != nil {
				return round, fmt.Errorf("transport: send round %d: %w", round, err)
			}
		}

		// Announce completion of this round to every peer. The marker is
		// identical for all of them, so encode it once, not per peer.
		quiet := lastStamp < round && (finisher == nil || finisher.Finished())
		var kind model.MessageKind
		if quiet {
			kind = doneQuiet
		}
		done := encodeFrame(frameDone, round, kind, nil)
		for _, p := range peers {
			if err := r.tr.Send(p, done); err != nil {
				return round, fmt.Errorf("transport: done round %d: %w", round, err)
			}
		}

		// Collect DONE(round) from all peers, buffering what overtakes the
		// barrier. In-order links plus the barrier mean a correct peer's
		// frames never carry a round already passed, and nothing stamped
		// past the bound is ever deliverable (the engine's rule: a delay
		// past maxRounds is never delivered). Anything else — like a frame
		// that does not decode — is a faulty peer's and is dropped here,
		// so a peer can park at most maxRounds entries; the protocol's
		// deadline logic treats the silence correctly.
		for len(pendingDone[round]) < len(peers) {
			from, frame, err := r.tr.Recv()
			if err != nil {
				return round, fmt.Errorf("transport: recv round %d: %w", round, err)
			}
			ftype, frnd, kind, payload, err := decodeFrame(frame)
			if err != nil || frnd < round {
				continue
			}
			switch {
			case ftype == frameDone && frnd <= maxRounds:
				if pendingDone[frnd] == nil {
					pendingDone[frnd] = make(map[model.NodeID]bool, len(peers))
				}
				// A peer is quiet only if every marker it sent for the
				// round says so: a duplicate can cost rounds, never end
				// the run under a node that is still sending.
				prev, dup := pendingDone[frnd][from]
				pendingDone[frnd][from] = kind == doneQuiet && (!dup || prev)
			case ftype == frameMessage && frnd < maxRounds:
				// Messages sent in round r are delivered at step r+1, as
				// in the simulator.
				pendingMsgs[frnd+1] = append(pendingMsgs[frnd+1], model.Message{
					From:    from,
					To:      self,
					Round:   frnd,
					Kind:    kind,
					Payload: payload,
				})
			}
		}
		for _, q := range pendingDone[round] {
			quiet = quiet && q
		}
		delete(pendingDone, round)
		if quiet {
			return round, nil
		}
	}
	return maxRounds, nil
}

// Package metrics collects message, byte, and round counts from protocol
// runs and renders the tables the experiment harness reports.
//
// The paper's evaluation is analytic: message complexity per protocol
// (3n(n−1) for key distribution, n−1 for authenticated failure discovery,
// O(n·t) without authentication) and round counts. The counters here make
// those quantities directly observable from real executions so every claim
// package experiments tabulates is measured, not assumed.
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - Counters.MessagesFrom: the per-sender count a bound on what correct nodes send needs; only tests read it yet.
//   - Table.RenderCSV: the -csv output of fdbench, fdcampaign and fdreport table.
//   - Dist.String, Table.String: String methods.
package metrics

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
)

// Counters accumulates traffic statistics for one protocol run. It is safe
// for concurrent use, so the same type serves the lockstep simulator and
// the TCP transport.
type Counters struct {
	mu sync.Mutex

	messages int
	bytes    int
	byKind   map[model.MessageKind]int
	bySender map[model.NodeID]int
	// roundBytes holds the payload bytes sent under each round stamp; a
	// round with traffic has a key even when its payloads are empty.
	roundBytes map[int]int
	maxRound   int
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{
		byKind:     make(map[model.MessageKind]int),
		bySender:   make(map[model.NodeID]int),
		roundBytes: make(map[int]int),
	}
}

// Record accounts for one sent message. Both engines call it for every
// send, a message the network then loses included, so every count here is
// of sends, not deliveries; a delayed message counts under the round
// stamp it is delivered with.
func (c *Counters) Record(m model.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.messages++
	c.bytes += len(m.Payload)
	c.byKind[m.Kind]++
	c.bySender[m.From]++
	c.roundBytes[m.Round] += len(m.Payload)
	if m.Round > c.maxRound {
		c.maxRound = m.Round
	}
}

// Messages returns the total number of messages recorded.
func (c *Counters) Messages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.messages
}

// MessagesFrom returns the count of messages sent by the given node.
func (c *Counters) MessagesFrom(id model.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bySender[id]
}

// Snapshot returns an immutable copy of the counters for reporting.
func (c *Counters) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Messages:            c.messages,
		Bytes:               c.bytes,
		CommunicationRounds: len(c.roundBytes),
		LastRound:           c.maxRound,
		ByKind:              make(map[model.MessageKind]int, len(c.byKind)),
	}
	for _, b := range c.roundBytes {
		s.MaxRoundBytes = max(s.MaxRoundBytes, b)
	}
	for k, v := range c.byKind {
		s.ByKind[k] = v
	}
	return s
}

// Snapshot is a point-in-time copy of a Counters.
type Snapshot struct {
	Messages int
	Bytes    int
	// CommunicationRounds counts the rounds in which at least one message
	// was delivered: the paper's counting, in which key distribution
	// "takes 3 rounds of communication" though acceptance happens in a
	// fourth, message-free step.
	CommunicationRounds int
	LastRound           int
	// MaxRoundBytes is the largest payload sum sent under one round
	// stamp. Every message the lockstep engine delivers in round r+1 was
	// stamped r, so it bounds what any one round delivers — the quantity
	// sim.ParallelRoundBytes is compared with.
	MaxRoundBytes int
	ByKind        map[model.MessageKind]int
}

// String summarizes the snapshot on one line.
func (s Snapshot) String() string {
	kinds := make([]model.MessageKind, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	out := fmt.Sprintf("msgs=%d bytes=%d rounds=%d", s.Messages, s.Bytes, s.CommunicationRounds)
	for _, k := range kinds {
		out += fmt.Sprintf(" %v=%d", k, s.ByKind[k])
	}
	return out
}

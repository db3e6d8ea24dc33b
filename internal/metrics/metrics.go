// Package metrics collects message, byte, and round counts from protocol
// runs and renders the tables the experiment harness reports.
//
// The paper's evaluation is analytic: message complexity per protocol
// (3n(n−1) for key distribution, n−1 for authenticated failure discovery,
// O(n·t) without authentication) and round counts. The counters here make
// those quantities directly observable from real executions so every claim
// package experiments tabulates is measured, not assumed.
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

	messages     int
	bytes        int
	byKind       map[model.MessageKind]int
	bySender     map[model.NodeID]int
	trafficRound map[int]bool
	maxRound     int
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{
		byKind:       make(map[model.MessageKind]int),
		bySender:     make(map[model.NodeID]int),
		trafficRound: make(map[int]bool),
	}
}

// Record accounts for one delivered message.
func (c *Counters) Record(m model.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.messages++
	c.bytes += len(m.Payload)
	c.byKind[m.Kind]++
	c.bySender[m.From]++
	c.trafficRound[m.Round] = true
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

// Bytes returns the total payload bytes recorded.
func (c *Counters) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// MessagesOfKind returns the count of messages with the given kind.
func (c *Counters) MessagesOfKind(k model.MessageKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byKind[k]
}

// MessagesFrom returns the count of messages sent by the given node.
func (c *Counters) MessagesFrom(id model.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bySender[id]
}

// CommunicationRounds returns the number of distinct rounds in which at
// least one message was delivered. This matches the paper's counting: the
// key-distribution protocol "takes 3 rounds of communication" even though
// acceptance happens in a fourth, message-free step.
func (c *Counters) CommunicationRounds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.trafficRound)
}

// LastRound returns the highest round that carried traffic.
func (c *Counters) LastRound() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxRound
}

// Snapshot returns an immutable copy of the counters for reporting.
func (c *Counters) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Messages:            c.messages,
		Bytes:               c.bytes,
		CommunicationRounds: len(c.trafficRound),
		LastRound:           c.maxRound,
		ByKind:              make(map[model.MessageKind]int, len(c.byKind)),
	}
	for k, v := range c.byKind {
		s.ByKind[k] = v
	}
	return s
}

// Snapshot is a point-in-time copy of a Counters.
type Snapshot struct {
	Messages            int
	Bytes               int
	CommunicationRounds int
	LastRound           int
	ByKind              map[model.MessageKind]int
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

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
//   - tally.addFar: a key no engine stamps (a negative one, a round far past any deadline), kept so Record stays exact and bounded for any caller; the map-reference differential reaches it.
//   - Table.RenderCSV: the -csv output of fdbench, fdcampaign and fdreport table.
//   - Dist.String, Table.String: String methods.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/model"
)

// Counters accumulates traffic statistics for one protocol run. It is safe
// for concurrent use, so the same type serves the lockstep simulator and
// the TCP transport. Each count lives in a tally indexed by its key — the
// message kind, the sender, the round stamp — so a send costs three slice
// writes under the lock, never a hash.
type Counters struct {
	mu sync.Mutex

	messages int
	bytes    int
	byKind   tally
	bySender tally
	// byRound holds the sends under each round stamp.
	byRound  tally
	maxRound int
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return new(Counters) }

// Record accounts for one sent message. Both engines call it for every
// send, a message the network then loses included, so every count here is
// of sends, not deliveries; a delayed message counts under the round
// stamp it is delivered with.
func (c *Counters) Record(m model.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.messages++
	c.bytes += len(m.Payload)
	c.byKind.add(int(m.Kind))
	c.bySender.add(int(m.From))
	c.byRound.add(m.Round)
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
	return c.bySender.get(int(id))
}

// Snapshot returns an immutable copy of the counters for reporting.
func (c *Counters) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Messages:  c.messages,
		Bytes:     c.bytes,
		LastRound: c.maxRound,
	}
	kinds := 0
	c.byKind.each(func(int, int) { kinds++ })
	s.ByKind = make(map[model.MessageKind]int, kinds)
	c.byRound.each(func(int, int) { s.CommunicationRounds++ })
	c.byKind.each(func(k, sends int) { s.ByKind[model.MessageKind(k)] = sends })
	return s
}

// tally counts sends per key. A key in [0, len(near)) indexes near
// directly; near grows geometrically to reach a new key up to nearLimit,
// or up to twice its length, so node IDs of any system size and every
// round stamp a run can reach stay slice writes. Any other key — a
// negative one, or a stamp absurdly far ahead, which neither engine
// stamps — goes to far, searched linearly, so counting stays exact for
// every key without a map.
type tally struct {
	near []int
	far  []keyedCount
}

type keyedCount struct{ key, sends int }

// nearLimit is how far a tally's slice grows for a key beyond twice its
// length: 32 KiB of counts.
const nearLimit = 1 << 12

// add counts one send under key.
func (t *tally) add(key int) {
	if uint(key) >= uint(len(t.near)) {
		if key < 0 || key >= max(nearLimit, 2*len(t.near)) {
			t.addFar(key)
			return
		}
		grown := make([]int, max(key+1, 2*len(t.near), 8))
		copy(grown, t.near)
		// A far key the slice now reaches moves in, so no key is in both.
		t.far = slices.DeleteFunc(t.far, func(f keyedCount) bool {
			if f.key < len(grown) && f.key >= 0 {
				grown[f.key] = f.sends
				return true
			}
			return false
		})
		t.near = grown
	}
	t.near[key]++
}

func (t *tally) addFar(key int) {
	for i := range t.far {
		if t.far[i].key == key {
			t.far[i].sends++
			return
		}
	}
	t.far = append(t.far, keyedCount{key, 1})
}

// get returns the sends under key.
func (t *tally) get(key int) int {
	if uint(key) < uint(len(t.near)) {
		return t.near[key]
	}
	for _, f := range t.far {
		if f.key == key {
			return f.sends
		}
	}
	return 0
}

// each calls fn for every key with at least one send.
func (t *tally) each(fn func(key, sends int)) {
	for k, n := range t.near {
		if n > 0 {
			fn(k, n)
		}
	}
	for _, f := range t.far {
		fn(f.key, f.sends)
	}
}

// Snapshot is a point-in-time copy of a Counters.
type Snapshot struct {
	Messages int
	Bytes    int
	// CommunicationRounds counts the distinct round stamps under which at
	// least one message was sent: the paper's counting, in which key
	// distribution "takes 3 rounds of communication" though acceptance
	// happens in a fourth, message-free step. Like every count here it is
	// of sends (see Record), so a round whose every send the network
	// dropped still counts, and a delayed message counts under the stamp
	// it is delivered with, not the round it was sent in.
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

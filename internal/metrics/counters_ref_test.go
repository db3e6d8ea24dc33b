package metrics

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
)

// refCounters is Counters as it was before its tallies: three maps,
// kept verbatim as the oracle of TestCountersMatchMapReference. It
// accumulates traffic statistics for one protocol run. It is safe
// for concurrent use, so the same type serves the lockstep simulator and
// the TCP transport.
type refCounters struct {
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

// newRefCounters returns an empty counter set.
func newRefCounters() *refCounters {
	return &refCounters{
		byKind:     make(map[model.MessageKind]int),
		bySender:   make(map[model.NodeID]int),
		roundBytes: make(map[int]int),
	}
}

// Record accounts for one sent message. Both engines call it for every
// send, a message the network then loses included, so every count here is
// of sends, not deliveries; a delayed message counts under the round
// stamp it is delivered with.
func (c *refCounters) Record(m model.Message) {
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
func (c *refCounters) Messages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.messages
}

// MessagesFrom returns the count of messages sent by the given node.
func (c *refCounters) MessagesFrom(id model.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bySender[id]
}

// Snapshot returns an immutable copy of the counters for reporting.
func (c *refCounters) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Messages:            c.messages,
		Bytes:               c.bytes,
		CommunicationRounds: len(c.roundBytes),
		LastRound:           c.maxRound,
		ByKind:              make(map[model.MessageKind]int, len(c.byKind)),
	}
	for k, v := range c.byKind {
		s.ByKind[k] = v
	}
	return s
}

// refSends draws count sends for the differential: every kind 0–255,
// senders mostly of a small system but also negative or far out, round
// stamps as the engines make them — the current round, a delayed one
// further ahead, one past the deadline — and a few absurd ones.
func refSends(rng *rand.Rand, count int) []model.Message {
	out := make([]model.Message, count)
	for i := range out {
		m := model.Message{Kind: model.MessageKind(rng.Intn(256)), Payload: make([]byte, rng.Intn(40))}
		switch r := rng.Intn(20); {
		case r == 0:
			m.From = model.NodeID(-1 - rng.Intn(3))
		case r == 1:
			m.From = model.NodeID(rng.Intn(1 << 20))
		default:
			m.From = model.NodeID(rng.Intn(64))
		}
		switch r := rng.Intn(20); {
		case r == 0:
			m.Round = -rng.Intn(3)
		case r == 1:
			m.Round = rng.Intn(1 << 30)
		case r < 6:
			m.Round = 1 + rng.Intn(8) + rng.Intn(257) // delayed
		default:
			m.Round = 1 + rng.Intn(8)
		}
		out[i] = m
	}
	return out
}

// TestCountersMatchMapReference drives Counters and the map-based
// reference with the same sends, from eight goroutines at once, and
// requires equal snapshots and per-sender counts.
func TestCountersMatchMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewCounters(), newRefCounters()
		var wg sync.WaitGroup
		senders := map[model.NodeID]bool{}
		for g := 0; g < 8; g++ {
			sends := refSends(rng, 1+rng.Intn(400))
			for _, m := range sends {
				senders[m.From] = true
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, m := range sends {
					got.Record(m)
					want.Record(m)
				}
			}()
		}
		wg.Wait()
		if seed == 1 {
			// A far sender the near slice later grows over moves in.
			for id := -2; id < 9000; id++ {
				m := model.Message{From: model.NodeID(id), Round: id, Kind: model.KindEcho}
				if id == -2 {
					m.From, m.Round = 6000, 6000
				}
				got.Record(m)
				want.Record(m)
				senders[m.From] = true
			}
		}
		if g, w := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: snapshot\n%+v\nreference\n%+v", seed, g, w)
		}
		if g, w := got.Messages(), want.Messages(); g != w {
			t.Fatalf("seed %d: Messages %d, reference %d", seed, g, w)
		}
		for id := range senders {
			for _, id := range []model.NodeID{id, id + 1} {
				if g, w := got.MessagesFrom(id), want.MessagesFrom(id); g != w {
					t.Fatalf("seed %d: MessagesFrom(%d) = %d, reference %d", seed, id, g, w)
				}
			}
		}
	}
}

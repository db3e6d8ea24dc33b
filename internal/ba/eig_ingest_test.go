package ba

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// Tests for the rank-indexed EIG tree: the slot layout against the path
// enumeration, the streaming final-round ingest against the
// []OralEntry-building loop, and the end-to-end n=16 cluster.

// TestRankIndexMatchesEnumeration pins the slot layout: rankOf must map
// the paths of each level onto 0..count-1 in exactly resolveTree's
// generation order (enumPaths walks children by ascending node ID among
// non-excluded IDs — the same order the old recursion used).
func TestRankIndexMatchesEnumeration(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}, {16, 3}} {
		cfg := model.Config{N: tc.n, T: tc.t}
		for _, resolver := range []model.NodeID{1, model.NodeID(tc.n - 1)} {
			node, err := NewEIGNode(cfg, resolver)
			if err != nil {
				t.Fatalf("NewEIGNode(n=%d t=%d): %v", tc.n, tc.t, err)
			}
			for l := 1; l <= tc.t+1; l++ {
				paths := enumPaths(cfg, resolver, l)
				if len(paths) != node.levels[l-1].count {
					t.Fatalf("n=%d t=%d level %d: %d slots, enumeration has %d paths",
						tc.n, tc.t, l-1, node.levels[l-1].count, len(paths))
				}
				for want, p := range paths {
					if got := node.rankOf(p); got != want {
						t.Fatalf("n=%d t=%d resolver %v: rankOf(%v) = %d, enumeration position %d",
							tc.n, tc.t, resolver, p, got, want)
					}
				}
			}
		}
	}
}

// synthRound builds one engine-shaped inbox for `resolver` at the given
// round: every other eligible node reports all its length-(round-1)
// paths, one oral message per sender, sorted by sender — exactly what
// the lockstep engine delivers. Values are unique per path so any
// ordering or slotting mistake changes bytes somewhere.
func synthRound(cfg model.Config, resolver model.NodeID, round int) []model.Message {
	bySender := make(map[model.NodeID][]OralEntry)
	for i, p := range enumPaths(cfg, resolver, round-1) {
		last := p[len(p)-1]
		bySender[last] = append(bySender[last], OralEntry{
			Path:  p,
			Value: []byte(fmt.Sprintf("v-%d", i)),
		})
	}
	var msgs []model.Message
	for q := 0; q < cfg.N; q++ {
		qid := model.NodeID(q)
		entries, ok := bySender[qid]
		if !ok {
			continue
		}
		msgs = append(msgs, model.Message{
			From:    qid,
			To:      resolver,
			Round:   round,
			Kind:    model.KindOral,
			Payload: MarshalOralEntries(entries),
		})
	}
	return msgs
}

// TestEIGIngestFinalMatchesIngestSerial pins the streaming final-round
// ingest against the []OralEntry-building reference loop: identical tree
// state, including under duplicate and invalid entries and a malformed
// payload (which must store nothing, atomically).
func TestEIGIngestFinalMatchesIngestSerial(t *testing.T) {
	cfg := model.Config{N: 16, T: 3}
	resolver := model.NodeID(15)
	round := EIGEngineRounds(cfg.T) // leaf round: paths of length t+1
	inbox := synthRound(cfg, resolver, round)
	// Adversarial noise: sender 1 re-reports its first entries with
	// different values (duplicates must lose to the first report) and
	// appends an entry with a lying last hop (must be dropped).
	first, err := unmarshalOralEntries(inbox[0].Payload)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	dup := make([]OralEntry, 0, len(first)+2)
	dup = append(dup, first...)
	dup = append(dup, OralEntry{Path: first[0].Path, Value: []byte("liar")})
	badPath := append(append([]model.NodeID(nil), first[0].Path[:len(first[0].Path)-1]...), model.NodeID(2))
	dup = append(dup, OralEntry{Path: badPath, Value: []byte("wrong-hop")})
	inbox[0].Payload = MarshalOralEntries(dup)
	// And one malformed payload: truncated mid-entry. Both ingests must
	// drop the whole message.
	truncated := inbox[1].Payload[:len(inbox[1].Payload)-3]
	inbox[1].Payload = truncated

	ref, err := NewEIGNode(cfg, resolver)
	if err != nil {
		t.Fatalf("NewEIGNode: %v", err)
	}
	ref.ingestSerial(round, inbox, nil)

	node, err := NewEIGNode(cfg, resolver)
	if err != nil {
		t.Fatalf("NewEIGNode: %v", err)
	}
	node.ingestFinal(round, inbox)
	for d := range ref.levels {
		for i := 0; i < ref.levels[d].count; i++ {
			if node.levels[d].occ[i] != ref.levels[d].occ[i] ||
				!bytes.Equal(node.levels[d].val[i], ref.levels[d].val[i]) {
				t.Fatalf("tree slot (level %d, rank %d) differs from ingestSerial", d, i)
			}
		}
	}
}

// runEIGCluster runs a failure-free OM(t) cluster to completion and
// returns every node's decision plus the total relayed-entry count.
func runEIGCluster(t testing.TB, cfg model.Config, value []byte) ([][]byte, int64) {
	t.Helper()
	var entries atomic.Int64
	procs := make([]sim.Process, cfg.N)
	nodes := make([]*EIGNode, cfg.N)
	for i := range procs {
		opts := []EIGOption{WithEntryCounter(&entries)}
		if model.NodeID(i) == Sender {
			opts = append(opts, WithEIGValue(value))
		}
		n, err := NewEIGNode(cfg, model.NodeID(i), opts...)
		if err != nil {
			t.Fatalf("NewEIGNode(%d): %v", i, err)
		}
		nodes[i] = n
		procs[i] = n
	}
	eng, err := sim.New(cfg, procs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	eng.Run(EIGEngineRounds(cfg.T))
	out := make([][]byte, cfg.N)
	for i, n := range nodes {
		out[i] = n.Decision().Value
	}
	return out, entries.Load()
}

// TestEIGAllocsIndependentOfGOMAXPROCS runs a full n=16 t=3 cluster
// through the engine and requires the allocation count per run to be
// the same on one core and on two: a run's cost is a function of its
// input, not of the cores the process happens to have. Decisions and the
// classical entry count are checked on the way. testing.AllocsPerRun
// pins GOMAXPROCS to 1 itself, so the count is read from MemStats: with
// the collector off, because each cycle allocates a few objects of its
// own, and as the least of three runs, because MemStats counts the whole
// process and noise only ever adds.
func TestEIGAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflate under -race")
	}
	cfg := model.Config{N: 16, T: 3}
	value := []byte("same-cost-on-any-core-count")
	run := func() {
		decisions, entries := runEIGCluster(t, cfg, value)
		if want := int64(EIGEntries(cfg.N, cfg.T)); entries != want {
			t.Fatalf("relayed %d entries, classical count is %d", entries, want)
		}
		for node, d := range decisions {
			if !bytes.Equal(d, value) {
				t.Fatalf("node %d decided %q, want %q", node, d, value)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var allocs [2]uint64
	for i, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		run() // warm up
		var before, after runtime.MemStats
		for r := 0; r < 3; r++ {
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; r == 0 || n < allocs[i] {
				allocs[i] = n
			}
		}
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocs per run: %d at GOMAXPROCS=1, %d at GOMAXPROCS=2", allocs[0], allocs[1])
	}
}

// BenchmarkEIG runs a full failure-free OM(t) agreement — path-keyed
// tree ingestion, relaying and the bottom-up resolve across all n nodes
// — at the deep (n=16), O(n^t) stress (t=5) and wide (n=64, n=128) grid
// points. Every iteration asserts that all nodes decided the sender's
// value, so it cannot keep timing a silently broken agreement.
func BenchmarkEIG(b *testing.B) {
	value := []byte("v")
	for _, cfg := range []model.Config{{N: 10, T: 3}, {N: 16, T: 3}, {N: 16, T: 5}, {N: 64, T: 2}, {N: 128, T: 2}} {
		b.Run(fmt.Sprintf("n=%d_t=%d", cfg.N, cfg.T), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decisions, _ := runEIGCluster(b, cfg, value)
				for node, d := range decisions {
					if !bytes.Equal(d, value) {
						b.Fatalf("node %d decided %q, want %q", node, d, value)
					}
				}
			}
		})
	}
}

package ba

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// Tests for the interned, rank-indexed EIG tree: the slot layout against
// the path enumeration, the streaming ingest and the integer resolve
// against the reference node of eig_ref_test.go, the borrowed leaf level
// under concurrent steppers, and the allocation pins.

// TestRankIndexMatchesEnumeration pins the slot layout: rankOf must map
// the paths of each level onto 0..levelSize-1 in exactly resolveTree's
// generation order (enumPaths walks children by ascending node ID among
// non-excluded IDs — the same order the recursion uses).
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
				if len(paths) != node.levelSize(l-1) {
					t.Fatalf("n=%d t=%d level %d: %d slots, enumeration has %d paths",
						tc.n, tc.t, l-1, node.levelSize(l-1), len(paths))
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

// oralInbox turns per-sender entry lists into one engine-shaped inbox
// for `resolver`: one oral message per sender, sorted by sender — what
// the lockstep engine delivers.
func oralInbox(cfg model.Config, resolver model.NodeID, round int, bySender map[model.NodeID][]OralEntry) []model.Message {
	var msgs []model.Message
	for q := 0; q < cfg.N; q++ {
		if entries, ok := bySender[model.NodeID(q)]; ok {
			msgs = append(msgs, model.Message{
				From:    model.NodeID(q),
				To:      resolver,
				Round:   round,
				Kind:    model.KindOral,
				Payload: MarshalOralEntries(entries),
			})
		}
	}
	return msgs
}

// hostileInbox is a round's inbox as faulty relays would leave it: of
// the paths `resolver` could be told about this round, some are missing,
// some reported twice with different values, some filed under a node
// that is not their last hop, some of the wrong length, some through the
// resolver, a repeated node or a node that does not exist; some payloads
// are truncated, carry a trailing byte or hold an empty path (each makes
// the whole payload malformed), and one message is not oral at all. pick
// chooses each reported value.
func hostileInbox(rng *rand.Rand, cfg model.Config, resolver model.NodeID, round int, pick func() []byte) []model.Message {
	bySender := make(map[model.NodeID][]OralEntry)
	for _, p := range enumPaths(cfg, resolver, round-1) {
		from := p[len(p)-1]
		switch rng.Intn(10) {
		case 0:
			continue
		case 1:
			bySender[from] = append(bySender[from], OralEntry{Path: p, Value: pick()})
		case 2:
			from = model.NodeID(rng.Intn(cfg.N))
		case 3:
			if p = model.CloneAppend(p, from); rng.Intn(2) == 0 {
				p = p[:len(p)-2]
			}
		case 4:
			bad := []model.NodeID{resolver, Sender, model.NodeID(cfg.N), -1}
			p[rng.Intn(len(p))] = bad[rng.Intn(len(bad))]
		}
		bySender[from] = append(bySender[from], OralEntry{Path: p, Value: pick()})
	}
	inbox := oralInbox(cfg, resolver, round, bySender)
	for i := range inbox {
		switch payload := inbox[i].Payload; rng.Intn(8) {
		case 0:
			inbox[i].Payload = payload[:rng.Intn(len(payload))]
		case 1:
			inbox[i].Payload = append(payload[:len(payload):len(payload)], 0)
		}
	}
	stray := MarshalOralEntries([]OralEntry{{Path: []model.NodeID{Sender}, Value: []byte("not oral")}})
	return append(inbox, model.Message{From: Sender, To: resolver, Round: round, Kind: model.KindPlainValue, Payload: stray})
}

// diffLevel compares level, node's tree level of paths of length plen,
// with the reference's tree, and returns how many slots are stored.
func diffLevel(node *EIGNode, ref *refEIG, plen int, level []uint32) (stored int, err error) {
	for _, p := range enumPaths(node.cfg, node.id, plen) {
		id := level[node.rankOf(p)]
		want, ok := ref.tree[refKey(p)]
		if (id != 0) != ok || ok && node.vals[id] != string(want) {
			return 0, fmt.Errorf("path %v holds %q (id %d), reference holds %q (stored: %v)", p, node.vals[id], id, want, ok)
		}
		if ok && (id == defaultID) != bytes.Equal(want, DefaultValue) {
			return 0, fmt.Errorf("path %v holds %q under id %d, DefaultValue's id is %d", p, want, id, defaultID)
		}
		if ok {
			stored++
		}
	}
	return stored, nil
}

// TestEIGIngestMatchesReference drives one lieutenant and the reference
// node through the same hostile inboxes, relay rounds and final round
// alike, and requires the same tree after every round, byte-identical
// relay batches, and the same decision. Every fourth trial reports a
// different value in every entry, so the value table is exercised at its
// worst: it must still never hold more values than there are stored slots.
func TestEIGIngestMatchesReference(t *testing.T) {
	few := [][]byte{[]byte("v"), []byte("w"), {}, nil, DefaultValue, bytes.Repeat([]byte("long"), 20)}
	for _, tc := range []struct{ n, t int }{{3, 0}, {4, 1}, {7, 2}, {10, 3}} {
		cfg := model.Config{N: tc.n, T: tc.t}
		rng := rand.New(rand.NewSource(int64(1000*tc.n + tc.t)))
		for trial := 0; trial < 40; trial++ {
			unique := 0
			pick := func() []byte { return few[rng.Intn(len(few))] }
			if trial%4 == 3 {
				pick = func() []byte { unique++; return []byte(fmt.Sprintf("u-%d", unique)) }
			}
			resolver := model.NodeID(1 + rng.Intn(tc.n-1))
			node, err := NewEIGNode(cfg, resolver)
			if err != nil {
				t.Fatalf("NewEIGNode: %v", err)
			}
			ref := newRefEIG(cfg, resolver, nil)
			stored := 0
			sameLevel := func(round int, level []uint32) {
				t.Helper()
				k, err := diffLevel(node, ref, round-1, level)
				if err != nil {
					t.Fatalf("n=%d t=%d trial %d round %d: %v", tc.n, tc.t, trial, round, err)
				}
				stored += k
			}
			final := EIGEngineRounds(tc.t)
			for round := 2; round < final; round++ {
				inbox := hostileInbox(rng, cfg, resolver, round, pick)
				got, want := node.Step(round, inbox), ref.Step(round, inbox)
				if len(got) != len(want) {
					t.Fatalf("n=%d t=%d trial %d round %d: relays %d messages, reference %d",
						tc.n, tc.t, trial, round, len(got), len(want))
				}
				for i := range got {
					if got[i].To != want[i].To || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
						t.Fatalf("n=%d t=%d trial %d round %d: relay message %d differs from the reference's",
							tc.n, tc.t, trial, round, i)
					}
				}
				sameLevel(round, node.levels[round-2])
			}
			// The final round by hand, on a leaf level the test can read.
			inbox := hostileInbox(rng, cfg, resolver, final, pick)
			leaf := make([]uint32, node.levelSize(tc.t))
			node.ingest(inbox, final-1, leaf, nil)
			ref.Step(final, inbox)
			sameLevel(final, leaf)
			if values := len(node.vals) - 2; values > stored {
				t.Fatalf("n=%d t=%d trial %d: value table holds %d values for %d stored slots",
					tc.n, tc.t, trial, values, stored)
			}
			if got := node.vals[node.resolveTree(leaf)]; got != string(ref.decision) {
				t.Fatalf("n=%d t=%d trial %d: decides %q, reference decides %q", tc.n, tc.t, trial, got, ref.decision)
			}
		}
	}
}

// TestEIGValueLengthLimit pins the one limit eig.go restates instead of
// inheriting: a value of exactly sig's field bound is stored, one byte
// more makes the payload malformed — for the streaming ingest and the
// sig.Decoder-based reference alike.
func TestEIGValueLengthLimit(t *testing.T) {
	cfg := model.Config{N: 4, T: 1}
	for _, extra := range []int{0, 1} {
		payload := MarshalOralEntries([]OralEntry{{Path: []model.NodeID{Sender}, Value: make([]byte, maxOralValueLen+extra)}})
		inbox := []model.Message{{From: Sender, To: 1, Round: 2, Kind: model.KindOral, Payload: payload}}
		node, err := NewEIGNode(cfg, 1)
		if err != nil {
			t.Fatalf("NewEIGNode: %v", err)
		}
		ref := newRefEIG(cfg, 1, nil)
		got, want := node.Step(2, inbox), ref.Step(2, inbox)
		if stored, err := diffLevel(node, ref, 1, node.levels[0]); err != nil || stored == extra {
			t.Errorf("value of limit+%d bytes: %d slots stored, %v", extra, stored, err)
		}
		if len(got) != len(want) {
			t.Errorf("value of limit+%d bytes: relays %d messages, reference %d", extra, len(got), len(want))
		}
	}
}

// liar wraps a correct participant and rewrites what it sends: a
// different value in every entry to every destination, cycling through
// the ones an interning table could confuse — empty, zero-length and
// DefaultValue itself.
func liar(inner sim.Process) sim.Process {
	awkward := [][]byte{{}, nil, DefaultValue}
	k := 0
	return sim.ProcessFunc(func(round int, received []model.Message) []model.Message {
		var lies []model.Message
		for _, m := range inner.Step(round, received) {
			entries, err := unmarshalOralEntries(m.Payload)
			if err != nil {
				panic(err) // a correct node marshaled it
			}
			for j := range entries {
				if k++; k%4 == 0 {
					entries[j].Value = awkward[k/4%len(awkward)]
				} else {
					entries[j].Value = []byte(fmt.Sprintf("lie-%d", k))
				}
			}
			m.Payload = MarshalOralEntries(entries)
			lies = append(lies, m)
		}
		return lies
	})
}

// TestEIGHostileValuesMatchReference runs whole clusters in which t
// nodes, the sender among them or not, are liars, once with the real
// nodes and once with reference nodes: every correct node must decide
// what its reference twin decides, and all of them the same value.
func TestEIGHostileValuesMatchReference(t *testing.T) {
	value := []byte("attack at dawn")
	for _, tc := range []struct {
		n, t  int
		liars []model.NodeID
	}{
		{4, 1, []model.NodeID{2}},
		{7, 2, []model.NodeID{2, 5}},
		{7, 2, []model.NodeID{0, 3}},
		{10, 3, []model.NodeID{1, 4, 7}},
		{10, 3, []model.NodeID{0, 8, 9}},
	} {
		cfg := model.Config{N: tc.n, T: tc.t}
		nodes := make([]*EIGNode, cfg.N)
		refs := make([]*refEIG, cfg.N)
		real, twin := make([]sim.Process, cfg.N), make([]sim.Process, cfg.N)
		for i := range nodes {
			id := model.NodeID(i)
			n, err := NewEIGNode(cfg, id, WithEIGValue(value))
			if err != nil {
				t.Fatalf("NewEIGNode(%d): %v", i, err)
			}
			nodes[i], refs[i] = n, newRefEIG(cfg, id, value)
			real[i], twin[i] = n, refs[i]
			if slices.Contains(tc.liars, id) {
				real[i], twin[i] = liar(n), liar(refs[i])
			}
		}
		for _, procs := range [][]sim.Process{real, twin} {
			eng, err := sim.New(cfg, procs)
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			eng.Run(EIGEngineRounds(cfg.T))
		}
		var agreed []byte
		for i, n := range nodes {
			if slices.Contains(tc.liars, model.NodeID(i)) {
				continue
			}
			got := n.Decision().Value
			if !bytes.Equal(got, refs[i].decision) {
				t.Errorf("n=%d t=%d liars %v: node %d decides %q, reference decides %q",
					tc.n, tc.t, tc.liars, i, got, refs[i].decision)
			}
			if agreed == nil {
				agreed = got
			}
			if !bytes.Equal(got, agreed) {
				t.Errorf("n=%d t=%d liars %v: node %d decides %q, another correct node %q",
					tc.n, tc.t, tc.liars, i, got, agreed)
			}
		}
	}
}

// newEIGCluster builds a failure-free OM(t) cluster sharing one entry
// counter.
func newEIGCluster(cfg model.Config, value []byte) ([]*EIGNode, *atomic.Int64, error) {
	entries := new(atomic.Int64)
	nodes := make([]*EIGNode, cfg.N)
	for i := range nodes {
		opts := []EIGOption{WithEntryCounter(entries)}
		if model.NodeID(i) == Sender {
			opts = append(opts, WithEIGValue(value))
		}
		n, err := NewEIGNode(cfg, model.NodeID(i), opts...)
		if err != nil {
			return nil, nil, fmt.Errorf("NewEIGNode(%d): %w", i, err)
		}
		nodes[i] = n
	}
	return nodes, entries, nil
}

// checkEIGRun requires a finished failure-free run to have decided the
// sender's value everywhere at exactly the classical entry count, so
// nothing built on it can keep timing or counting a broken agreement.
func checkEIGRun(cfg model.Config, nodes []*EIGNode, entries *atomic.Int64, value []byte) error {
	for _, n := range nodes {
		if d := n.Decision(); !bytes.Equal(d.Value, value) {
			return fmt.Errorf("n=%d t=%d: %v, want %q", cfg.N, cfg.T, d, value)
		}
	}
	if got, want := entries.Load(), int64(EIGEntries(cfg.N, cfg.T)); got != want {
		return fmt.Errorf("n=%d t=%d: relayed %d entries, classical count is %d", cfg.N, cfg.T, got, want)
	}
	return nil
}

// runEIGCluster runs one failure-free agreement through the serial
// lockstep engine and checks it.
func runEIGCluster(cfg model.Config, value []byte) error {
	nodes, entries, err := newEIGCluster(cfg, value)
	if err != nil {
		return err
	}
	procs := make([]sim.Process, len(nodes))
	for i, n := range nodes {
		procs[i] = n
	}
	eng, err := sim.New(cfg, procs)
	if err != nil {
		return err
	}
	eng.Run(EIGEngineRounds(cfg.T))
	return checkEIGRun(cfg, nodes, entries, value)
}

// runEIGClusterConcurrently runs one failure-free agreement with every
// node of a round stepping in its own goroutine, as a node per process
// over a real transport would.
func runEIGClusterConcurrently(cfg model.Config, value []byte) error {
	nodes, entries, err := newEIGCluster(cfg, value)
	if err != nil {
		return err
	}
	inbox := make([][]model.Message, cfg.N)
	for round := 1; round <= EIGEngineRounds(cfg.T); round++ {
		sent := make([][]model.Message, cfg.N)
		var wg sync.WaitGroup
		for i, n := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A node reuses the slice it returns: copy it out.
				sent[i] = append([]model.Message(nil), n.Step(round, inbox[i])...)
			}()
		}
		wg.Wait()
		inbox = make([][]model.Message, cfg.N)
		for from, msgs := range sent {
			for _, m := range msgs {
				m.From, m.Round = model.NodeID(from), round
				inbox[m.To] = append(inbox[m.To], m)
			}
		}
	}
	return checkEIGRun(cfg, nodes, entries, value)
}

// TestEIGConcurrentSteppers proves the borrowed leaf level safe outside
// the serial engine (run it under -race): clusters of different sizes —
// so a borrowed buffer is as often too small as too large — run side by
// side, as campaign workers run them, next to clusters whose nodes all
// step at once, as the mesh engine's runners step them.
func TestEIGConcurrentSteppers(t *testing.T) {
	var wg sync.WaitGroup
	for i, cfg := range []model.Config{{N: 7, T: 2}, {N: 10, T: 3}, {N: 13, T: 2}, {N: 3, T: 0}, {N: 10, T: 3}, {N: 16, T: 2}} {
		run := runEIGCluster
		if i%3 == 2 {
			run = runEIGClusterConcurrently
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if err := run(cfg, []byte(fmt.Sprintf("value-%d-%d", i, rep))); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEIGClusterAllocs pins what one whole agreement allocates: nodes,
// their inner levels and value tables, one relay batch per node and
// round, and the engine's message movement. What it must never grow by
// is anything per tree slot or per entry — n=64 t=2 stores 250,110 of
// them — and the leaf levels must come out of the pool, not the heap.
func TestEIGClusterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflate under -race")
	}
	value := []byte("one-value-interned-once-per-node")
	for _, tc := range []struct {
		cfg  model.Config
		want float64
	}{
		{model.Config{N: 16, T: 3}, 465},  // 2,768 before values were interned, 745 while sim.Engine copied views
		{model.Config{N: 64, T: 2}, 1948}, // 20,043, 2,770
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := runEIGCluster(tc.cfg, value); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.want {
			t.Errorf("n=%d t=%d: one cluster run allocates %.0f times, pinned at %.0f", tc.cfg.N, tc.cfg.T, allocs, tc.want)
		}
	}
}

// TestEIGFinalPayloadAllocs pins the hot loop of a run — a final-round
// payload streamed into the leaf level — at zero allocations once its
// values are in the table: no decoder, no entry slice, no path or value
// arena, no copy per stored slot. Three values cycling make every batch
// runs of one or two entries; the two-run inbox is a two-faced sender's.
func TestEIGFinalPayloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflate under -race")
	}
	cfg := model.Config{N: 16, T: 3}
	resolver := model.NodeID(15)
	for _, shape := range []ingestShape{
		{"three values", func(k, _ int) []byte { return []byte(fmt.Sprintf("v-%d", k%3)) }},
		ingestShapes[1], // two-run
	} {
		inbox, _ := finalInbox(cfg, resolver, shape.value)
		node, err := NewEIGNode(cfg, resolver)
		if err != nil {
			t.Fatalf("NewEIGNode: %v", err)
		}
		leaf := make([]uint32, node.levelSize(cfg.T))
		allocs := testing.AllocsPerRun(20, func() {
			clear(leaf)
			node.ingest(inbox, cfg.T+1, leaf, nil)
		})
		if rank := slices.Index(leaf, 0); rank >= 0 {
			t.Fatalf("%s: leaf slot %d left empty", shape.name, rank)
		}
		if allocs != 0 {
			t.Errorf("%s: ingesting %d final-round payloads allocates %.1f times, want 0", shape.name, len(inbox), allocs)
		}
	}
}

// BenchmarkEIG runs a full failure-free OM(t) agreement — ingest,
// relaying and the bottom-up resolve across all n nodes — at the deep
// (n=16), O(n^t) stress (t=5) and wide (n=64, n=128) grid points. Every
// iteration checks that all nodes decided the sender's value.
func BenchmarkEIG(b *testing.B) {
	value := []byte("v")
	for _, cfg := range []model.Config{{N: 10, T: 3}, {N: 16, T: 3}, {N: 16, T: 5}, {N: 64, T: 2}, {N: 128, T: 2}} {
		b.Run(fmt.Sprintf("n=%d_t=%d", cfg.N, cfg.T), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := runEIGCluster(cfg, value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// finalInbox is a final-round inbox for `resolver` in which every leaf
// path is reported once by its last hop, in enumeration order; value
// picks the report of the k-th of a relay's count entries, so it alone
// decides how a batch falls into runs.
func finalInbox(cfg model.Config, resolver model.NodeID, value func(k, count int) []byte) (inbox []model.Message, entries int) {
	final := EIGEngineRounds(cfg.T)
	bySender := make(map[model.NodeID][]OralEntry)
	for _, p := range enumPaths(cfg, resolver, final-1) {
		from := p[len(p)-1]
		bySender[from] = append(bySender[from], OralEntry{Path: p})
		entries++
	}
	for _, batch := range bySender {
		for k := range batch {
			batch[k].Value = value(k, len(batch))
		}
	}
	return oralInbox(cfg, resolver, final, bySender), entries
}

// ingestShape names a value picker for finalInbox.
type ingestShape struct {
	name  string
	value func(k, count int) []byte
}

// The three ways a final-round batch falls into runs: one run (every
// relay honest), two (the sender two-faced: a relay reports the nodes of
// one face, then of the other), and runs of one (a relay that changes the
// value's length at every entry — the walker's worst case).
var ingestShapes = []ingestShape{
	{"uniform", func(int, int) []byte { return []byte("value") }},
	{"two-run", func(k, count int) []byte {
		if k < count/2 {
			return []byte("value")
		}
		return []byte("forged")
	}},
	{"alternating", func(k, _ int) []byte {
		if k%2 == 0 {
			return []byte("value")
		}
		return []byte("forged")
	}},
}

// BenchmarkEIGIngest streams one final-round inbox at n=64 t=2 — 62
// payloads, 3,782 entries — into the leaf level, in each of ingestShapes,
// and reports the time per entry: the hostile shape's cost is a row of
// its own beside the two a correct relay produces.
func BenchmarkEIGIngest(b *testing.B) {
	cfg := model.Config{N: 64, T: 2}
	resolver := model.NodeID(63)
	for _, shape := range ingestShapes {
		b.Run(shape.name, func(b *testing.B) {
			inbox, entries := finalInbox(cfg, resolver, shape.value)
			node, err := NewEIGNode(cfg, resolver)
			if err != nil {
				b.Fatal(err)
			}
			leaf := make([]uint32, node.levelSize(cfg.T))
			node.ingest(inbox, cfg.T+1, leaf, nil) // interns the values
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(leaf)
				node.ingest(inbox, cfg.T+1, leaf, nil)
			}
			b.StopTimer()
			if slices.Contains(leaf, 0) {
				b.Fatal("a leaf slot was left empty")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
		})
	}
}

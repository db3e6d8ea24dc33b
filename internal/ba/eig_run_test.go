package ba

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/sig"
)

// Tests for the single walk over a payload (ingestPayload, by runs, each
// payload a transaction undone if it proves malformed) and the fused path
// check (reporterOf, then pathRank per entry), all differential: against
// the reference decoder and node, and against rankOf/validPath, the two
// functions pathRank replaced (eig_ref_test.go).

// The cluster diffOralPayload plays a payload into: node 2 of ten
// resolves, the sender reports in round 2 and node 1 in rounds 3 to 5 —
// t=3, so that the last relay round has whole runs to store and extend.
var oralDiffCfg = model.Config{N: 10, T: 3}

const (
	oralDiffResolver = model.NodeID(2)
	oralDiffRelay    = model.NodeID(1)
)

// diffOralPayload streams data into a fresh node as the one payload of
// each round from the first relay round to the final one, and requires
// what the reference decoder and node leave: the same tree level, the
// same relay batch byte for byte, in the final round the same decision.
// A payload the reference decoder rejects must also leave the value
// table, its index and the relay batch as a fresh node has them: what it
// stored before proving malformed is undone. It returns the slots each
// round stored, indexed by round.
func diffOralPayload(t testing.TB, data []byte) []int {
	t.Helper()
	cfg, resolver := oralDiffCfg, oralDiffResolver
	final := EIGEngineRounds(cfg.T)
	stored := make([]int, final+1)
	_, err := unmarshalOralEntries(data)
	malformed := err != nil
	fresh, err := NewEIGNode(cfg, resolver)
	if err != nil {
		t.Fatal(err)
	}
	for round := 2; round <= final; round++ {
		node, _ := NewEIGNode(cfg, resolver)
		ref := newRefEIG(cfg, resolver, nil)
		inbox := []model.Message{{From: oralDiffRelay, To: resolver, Round: round, Kind: model.KindOral, Payload: data}}
		if round == 2 {
			inbox[0].From = Sender
		}
		level := make([]uint32, node.levelSize(round-2))
		var batch []byte
		if round < final {
			batch = make([]byte, sig.IntFieldSize)
		}
		relay, relayed := node.ingest(inbox, round-1, level, batch)
		sent := ref.Step(round, inbox)
		if stored[round], err = diffLevel(node, ref, round-1, level); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if (relayed != 0) != (len(sent) != 0) || relayed != 0 && !bytes.Equal(relay, sent[0].Payload) {
			t.Fatalf("round %d: relays %d entries as %x, reference sends %v", round, relayed, relay, sent)
		}
		if round < final && relayed != stored[round] {
			t.Fatalf("round %d: stores %d slots, relays %d entries", round, stored[round], relayed)
		}
		if malformed && (len(node.vals) != len(fresh.vals) || !maps.Equal(node.ids, fresh.ids) || node.last != fresh.last ||
			relayed != 0 || len(relay) != len(batch)) {
			t.Fatalf("round %d: a malformed payload leaves values %q indexed %v, last %d, %d relayed in a %d-byte batch; a fresh node has %q indexed %v, last %d, a %d-byte batch",
				round, node.vals, node.ids, node.last, relayed, len(relay), fresh.vals, fresh.ids, fresh.last, len(batch))
		}
		if round == final {
			if got := node.vals[node.resolveTree(level)]; got != string(ref.decision) {
				t.Fatalf("decides %q, reference decides %q", got, ref.decision)
			}
		}
	}
	return stored
}

// runWalkerCase is one payload aimed at the walk by runs: what each round
// must store of it (rounds 2 to 5 of diffOralPayload's cluster), or that
// it is malformed and no round may store anything.
type runWalkerCase struct {
	name      string
	data      []byte
	stored    [4]int
	malformed bool
}

// runWalkerPayloads builds the cases. A report node 1 can make in round 4
// is a path (0, x, 1), in round 5 a path (0, x, y, 1), x and y among 3…9.
func runWalkerPayloads() []runWalkerCase {
	three := func(x model.NodeID, v string) OralEntry {
		return OralEntry{Path: []model.NodeID{Sender, x, oralDiffRelay}, Value: []byte(v)}
	}
	four := func(x, y model.NodeID, v string) OralEntry {
		return OralEntry{Path: []model.NodeID{Sender, x, y, oralDiffRelay}, Value: []byte(v)}
	}
	// Where the path and the value length of a payload's last entry lie.
	lastPath := func(data []byte, last OralEntry) []byte {
		return data[len(data)-len(MarshalOralEntries([]OralEntry{last}))+sig.IntFieldSize:]
	}
	lastValue := func(data []byte, last OralEntry) []byte {
		return data[len(data)-sig.BytesFieldSize(len(last.Value)):]
	}
	// One run of four entries.
	run := MarshalOralEntries([]OralEntry{three(3, "value"), three(4, "value"), three(5, "value"), three(6, "value")})
	badPath := bytes.Clone(run)
	binary.BigEndian.PutUint64(lastPath(badPath, three(6, "value")), 0)
	badValue := bytes.Clone(run)
	binary.BigEndian.PutUint32(lastValue(badValue, three(6, "value")), maxOralValueLen+1)

	// Payloads that store entries — in rounds 4 and 5, under values a fresh
	// node has not interned, relayed in round 4 — before they prove
	// malformed: every one of those effects must be undone.
	twoRuns := []OralEntry{three(3, "new"), three(4, "new"), four(3, 4, "newer"), four(3, 5, "newer")}
	nextRun := MarshalOralEntries(append(twoRuns, three(5, "bad")))
	binary.BigEndian.PutUint32(lastValue(nextRun, three(5, "bad")), maxOralValueLen+1)
	ownLast := MarshalOralEntries([]OralEntry{three(3, "new"), three(4, "new"), three(5, "new"), three(6, "new")})
	binary.BigEndian.PutUint64(lastPath(ownLast, three(6, "new")), maxOralPathLen+1)
	return []runWalkerCase{
		{name: "a new shape at every entry", stored: [4]int{0, 0, 3, 3}, data: MarshalOralEntries([]OralEntry{
			three(3, ""), four(3, 4, "a"), three(4, "bb"), four(3, 5, "ccc"), three(5, "dddd"), four(3, 6, ""),
		})},
		// A hop more and eight value bytes fewer: the same size on the wire.
		{name: "two shapes of one stride", stored: [4]int{0, 0, 3, 3}, data: MarshalOralEntries([]OralEntry{
			three(3, "nine-byte"), three(4, "nine-byte"), four(3, 4, "1"), four(3, 5, "1"), three(5, "nine-byte"), four(4, 3, "1"),
		})},
		{name: "other rounds' lengths inside and between runs", stored: [4]int{1, 1, 4, 1}, data: MarshalOralEntries([]OralEntry{
			three(3, "v"), three(4, "v"),
			{Path: []model.NodeID{Sender, oralDiffRelay}, Value: []byte("v")}, {Path: []model.NodeID{Sender, oralDiffRelay}, Value: []byte("v")},
			three(5, "v"),
			{Path: []model.NodeID{Sender}, Value: []byte("v")},
			four(3, 4, "v"),
			{Path: []model.NodeID{Sender, 3, 4, 5, oralDiffRelay}, Value: []byte("v")},
			three(6, "v"),
		})},
		{name: "a run cut short by truncation", malformed: true, data: run[:len(run)-2]},
		{name: "a run cut short by a trailing byte", malformed: true, data: append(bytes.Clone(run), 0)},
		{name: "a run whose last entry has no path", malformed: true, data: badPath},
		{name: "a run whose last value is past the limit", malformed: true, data: badValue},
		{name: "a run of empty values", stored: [4]int{0, 0, 4, 0}, data: MarshalOralEntries([]OralEntry{
			three(3, ""), three(4, ""), three(5, ""), three(6, ""),
		})},
		{name: "two runs stored, the next one past the value limit", malformed: true, data: nextRun},
		{name: "a run stored, its own last entry past the path limit", malformed: true, data: ownLast},
		{name: "two runs stored, then a trailing byte", malformed: true, data: append(MarshalOralEntries(twoRuns), 0)},
	}
}

// TestEIGRunWalkerMatchesReference plays the walk's hard cases through
// the differential: a well-formed payload stores exactly the entries of
// the round's length whatever the runs around them look like, and a
// payload that goes wrong anywhere — in its last entry, in a run after
// the ones it stored, in a byte past its last entry — leaves no slot, no
// relayed entry and no interned value behind. Whether a case is malformed
// is the reference decoder's call.
func TestEIGRunWalkerMatchesReference(t *testing.T) {
	for _, tc := range runWalkerPayloads() {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := unmarshalOralEntries(tc.data); (err != nil) != tc.malformed {
				t.Fatalf("reference decoder: %v, malformed = %v", err, tc.malformed)
			}
			if got := diffOralPayload(t, tc.data); [4]int(got[2:]) != tc.stored {
				t.Errorf("rounds 2 to 5 store %v slots, want %v", got[2:], tc.stored)
			}
		})
	}
	// The same-stride case is one: else it tests nothing.
	a := MarshalOralEntries([]OralEntry{{Path: make([]model.NodeID, 3), Value: []byte("nine-byte")}})
	b := MarshalOralEntries([]OralEntry{{Path: make([]model.NodeID, 4), Value: []byte("1")}})
	if len(a) != len(b) {
		t.Errorf("the two shapes take %d and %d bytes, want one stride", len(a), len(b))
	}
}

// rankFrom is the path check as ingest makes it: once per payload on the
// reporter (reporterOf), then per entry on the wire bytes (pathRank).
func (n *EIGNode) rankFrom(wire []byte, from model.NodeID, plen int) (rank int, ok bool) {
	rep, ok := n.reporterOf(from, plen)
	if !ok {
		return 0, false
	}
	return n.pathRank(wire, rep, make([]uint64, plen))
}

// TestRankValidMatchesOracles: reporterOf and pathRank together accept a
// path exactly when validPath does and then return rankOf — for every hop
// sequence of length 1…t+1 over the ids −1…n at two small sizes and a
// seeded sample at a third, every lieutenant resolving, every claimed
// reporter.
func TestRankValidMatchesOracles(t *testing.T) {
	check := func(node *EIGNode, path []model.NodeID, from model.NodeID) {
		t.Helper()
		var wire []byte
		for _, p := range path {
			wire = sig.AppendInt(wire, int(p))
		}
		rank, ok := node.rankFrom(wire, from, len(path))
		if want := node.validPath(path, from); ok != want {
			t.Fatalf("n=%d resolver %v: pathRank(%v from %v) valid = %v, validPath = %v", node.cfg.N, node.id, path, from, ok, want)
		}
		if ok && rank != node.rankOf(path) {
			t.Fatalf("n=%d resolver %v: pathRank(%v) = %d, rankOf = %d", node.cfg.N, node.id, path, rank, node.rankOf(path))
		}
	}
	for _, tc := range []struct{ n, t, sample int }{{5, 1, 0}, {7, 2, 0}, {10, 3, 4000}} {
		cfg := model.Config{N: tc.n, T: tc.t}
		rng := rand.New(rand.NewSource(int64(tc.n)))
		ids := tc.n + 2 // −1 … n
		for resolver := 1; resolver < tc.n; resolver++ {
			node, err := NewEIGNode(cfg, model.NodeID(resolver))
			if err != nil {
				t.Fatal(err)
			}
			for length := 1; length <= tc.t+1; length++ {
				total := 1
				for i := 0; i < length; i++ {
					total *= ids
				}
				path := make([]model.NodeID, length)
				decode := func(code int) {
					for i := range path {
						path[i] = model.NodeID(code%ids - 1)
						code /= ids
					}
				}
				if tc.sample == 0 {
					for code := 0; code < total; code++ {
						decode(code)
						for from := -1; from <= tc.n; from++ {
							check(node, path, model.NodeID(from))
						}
					}
					continue
				}
				for k := 0; k < tc.sample; k++ {
					decode(rng.Intn(total))
					// A wrong reporter settles it at once: claim the last
					// hop half the time.
					from := model.NodeID(rng.Intn(ids) - 1)
					if rng.Intn(2) == 0 {
						from = path[length-1]
					}
					check(node, path, from)
				}
			}
		}
	}

	// A hop of 2⁶³ and up is out of range. Read as a signed id it would be
	// negative; read as a small one after truncation, node 3.
	node, err := NewEIGNode(model.Config{N: 7, T: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wire := sig.AppendInt(nil, int(Sender))
	wire = sig.AppendUint64(wire, 1<<63|3)
	wire = sig.AppendInt(wire, 1)
	if rank, ok := node.rankFrom(wire, 1, 3); ok {
		t.Errorf("pathRank accepts a hop of 2⁶³+3, at rank %d", rank)
	}
	wire = sig.AppendUint64(sig.AppendInt(sig.AppendInt(nil, int(Sender)), 3), 1<<63|1)
	if rank, ok := node.rankFrom(wire, model.NodeID(-1<<63|1), 3); ok {
		t.Errorf("pathRank accepts a last hop of 2⁶³+1 from a reporter of that id, at rank %d", rank)
	}
}

package ba

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/sig"
)

// Tests for the run walker (oralRun, and the two passes built on it) and
// the fused path check (pathRank), all differential: against the
// reference decoder and node, and against rankOf/validPath, the two
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
// It returns the slots each round stored, indexed by round.
func diffOralPayload(t testing.TB, data []byte) []int {
	t.Helper()
	cfg, resolver := oralDiffCfg, oralDiffResolver
	final := EIGEngineRounds(cfg.T)
	stored := make([]int, final+1)
	for round := 2; round <= final; round++ {
		node, err := NewEIGNode(cfg, resolver)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefEIG(cfg, resolver, nil)
		inbox := []model.Message{{From: oralDiffRelay, To: resolver, Round: round, Kind: model.KindOral, Payload: data}}
		if round == 2 {
			inbox[0].From = Sender
		}
		level := make([]uint32, node.levelSize(round-2))
		var relay []byte
		if round < final {
			relay = make([]byte, sig.IntFieldSize)
		}
		relay, relayed := node.ingest(inbox, round-1, level, relay)
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
		if round == final {
			if got := node.vals[node.resolveTree(level)]; got != string(ref.decision) {
				t.Fatalf("decides %q, reference decides %q", got, ref.decision)
			}
		}
	}
	return stored
}

// runWalkerCase is one payload aimed at the run walker: what each round
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
	// One run of four entries, and where its last entry begins.
	run := MarshalOralEntries([]OralEntry{three(3, "value"), three(4, "value"), three(5, "value"), three(6, "value")})
	lastEntry := len(run) - len(MarshalOralEntries([]OralEntry{three(6, "value")})) + sig.IntFieldSize
	badPath := bytes.Clone(run)
	binary.BigEndian.PutUint64(badPath[lastEntry:], 0)
	badValue := bytes.Clone(run)
	binary.BigEndian.PutUint32(badValue[len(run)-sig.BytesFieldSize(len("value")):], maxOralValueLen+1)
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
	}
}

// TestEIGRunWalkerMatchesReference plays the run walker's hard cases
// through the differential: a well-formed payload stores exactly the
// entries of the round's length whatever the runs around them look like,
// and a payload that goes wrong in the last entry of a run stores and
// relays nothing — the structural pass saw the whole payload first.
func TestEIGRunWalkerMatchesReference(t *testing.T) {
	for _, tc := range runWalkerPayloads() {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := unmarshalOralEntries(tc.data); (err != nil) != tc.malformed {
				t.Fatalf("reference decoder: %v, malformed = %v", err, tc.malformed)
			}
			if count, ok := oralEntryCount(tc.data); ok == tc.malformed {
				t.Fatalf("oralEntryCount = %d, %v, malformed = %v", count, ok, tc.malformed)
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

// TestRankValidMatchesOracles: pathRank accepts a path exactly when
// validPath does and then returns rankOf — for every hop sequence of
// length 1…t+1 over the ids −1…n at two small sizes and a seeded sample
// at a third, every lieutenant resolving, every claimed reporter.
func TestRankValidMatchesOracles(t *testing.T) {
	check := func(node *EIGNode, path []model.NodeID, from model.NodeID) {
		t.Helper()
		var wire []byte
		for _, p := range path {
			wire = sig.AppendInt(wire, int(p))
		}
		rank, ok := node.pathRank(wire, from, make([]uint64, len(path)))
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
	if rank, ok := node.pathRank(wire, 1, make([]uint64, 3)); ok {
		t.Errorf("pathRank accepts a hop of 2⁶³+3, at rank %d", rank)
	}
	wire = sig.AppendUint64(sig.AppendInt(sig.AppendInt(nil, int(Sender)), 3), 1<<63|1)
	if rank, ok := node.pathRank(wire, model.NodeID(-1<<63|1), make([]uint64, 3)); ok {
		t.Errorf("pathRank accepts a last hop of 2⁶³+1 from a reporter of that id, at rank %d", rank)
	}
}

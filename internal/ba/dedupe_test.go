package ba

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// SM(t) and FDBA's fallback receive through one signed flood
// (flood.go), which discards what its owner already holds before it
// parses or verifies what wraps it: these tests count predicate tests
// and allocations on exactly those paths, through each owner's admit
// rule, and pin that nothing else about the receive rules moved.

// countedPred forwards to a real predicate, keeping its identity, and
// counts the tests that reach it (verify-memo hits never do).
type countedPred struct {
	sig.TestPredicate
	tests *int
}

func (p *countedPred) Test(msg, sg []byte) bool {
	*p.tests++
	return p.TestPredicate.Test(msg, sg)
}

// dedupeFixture is n signers of one scheme and one shared directory
// whose predicates count into tests.
type dedupeFixture struct {
	cfg     model.Config
	signers []sig.Signer
	dir     *memoDir
	tests   int
}

// memoDir is a directory with a verify memo of its own, as a handshake's
// keydist.Directory has: a fresh fixture starts from an empty memo.
type memoDir struct {
	sig.MapDirectory
	memo *sig.VerifyMemo
}

func (d *memoDir) VerifyMemo() *sig.VerifyMemo { return d.memo }

func newDedupeFixture(t testing.TB, schemeName string, n, tol int, seed int64) *dedupeFixture {
	t.Helper()
	scheme, err := sig.ByName(schemeName)
	if err != nil {
		t.Fatal(err)
	}
	f := &dedupeFixture{cfg: model.Config{N: n, T: tol}, dir: &memoDir{make(sig.MapDirectory, n), new(sig.VerifyMemo)}}
	for i := 0; i < n; i++ {
		s, err := scheme.Generate(sim.SeededReader(sim.NodeSeed(seed, i)))
		if err != nil {
			t.Fatal(err)
		}
		f.signers = append(f.signers, s)
		f.dir.MapDirectory[model.NodeID(i)] = &countedPred{TestPredicate: s.Predicate(), tests: &f.tests}
	}
	return f
}

// chain signs value by signers[0] and extends it through the rest, each
// naming its predecessor.
func (f *dedupeFixture) chain(t testing.TB, value []byte, signers ...int) sig.Chain {
	t.Helper()
	c, err := sig.NewChain(value, f.signers[signers[0]])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(signers); i++ {
		if c, err = c.Extend(model.NodeID(signers[i-1]), f.signers[signers[i]]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func flood(from int, payload []byte) []model.Message {
	return []model.Message{{From: model.NodeID(from), Kind: model.KindFallback, Payload: payload}}
}

func TestFDBAFloodDropsSeenEvidenceBeforeVerifying(t *testing.T) {
	f := newDedupeFixture(t, sig.SchemeEd25519, 6, 2, 2301)
	n, err := NewFDBANode(f.cfg, 4, f.signers[4], f.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.inFallback = true
	ingestFlood := func(hop int, msgs []model.Message) []model.Message { return n.flood.relay(nil, hop, msgs, n.admit) }

	// Hop-round 1: node 1 presents the sender's one-layer evidence. New:
	// the wrapping and the evidence are verified and it is relayed.
	evidence := f.chain(t, []byte("v"), 0).Marshal()
	relays := ingestFlood(1, flood(1, f.chain(t, evidence, 1).Marshal()))
	if f.tests != 2 || len(relays) != f.cfg.N-2 || !n.flood.held[string(evidence)] || n.bestStrength != 1 {
		t.Fatalf("new evidence: %d tests, %d relays, seen=%v, strength %d; want 2, %d, true, 1",
			f.tests, len(relays), n.flood.held[string(evidence)], n.bestStrength, f.cfg.N-2)
	}

	// Hop-round 2: the same evidence again, wrapped by signatures this
	// process has never verified (2, then 3).
	again := flood(3, f.chain(t, evidence, 2, 3).Marshal())
	f.tests = 0
	if out := ingestFlood(2, again); out != nil || f.tests != 0 {
		t.Errorf("seen evidence: %d relays and %d predicate tests, want none", len(out), f.tests)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { ingestFlood(2, again) }); allocs != 0 {
			t.Errorf("a flood message carrying seen evidence allocates %.1f times, want 0", allocs)
		}
	}

	// Unseen evidence inside a wrapping whose outer signature is bad: the
	// wrapping is still verified, still rejected, and the evidence is not
	// marked seen — the honest wrapping that follows gets it accepted.
	unseen := f.chain(t, []byte("u"), 0).Marshal()
	honest := f.chain(t, unseen, 2, 3).Marshal()
	forged := append([]byte(nil), honest...)
	forged[len(forged)-1] ^= 0x01
	f.tests = 0
	if out := ingestFlood(2, flood(3, forged)); out != nil || f.tests == 0 {
		t.Errorf("forged wrapping: %d relays after %d predicate tests, want a rejection by test", len(out), f.tests)
	}
	if n.flood.held[string(unseen)] || n.conflict {
		t.Error("evidence inside a forged wrapping was noted")
	}
	if out := ingestFlood(2, flood(3, honest)); len(out) == 0 || !n.flood.held[string(unseen)] || !n.conflict {
		t.Errorf("honest wrapping of the same evidence: %d relays, seen=%v, conflict=%v", len(out), n.flood.held[string(unseen)], n.conflict)
	}

	// A malformed tail: dropped without a test whether the value before it
	// is seen or not, and an unseen one stays unseen.
	fresh := f.chain(t, []byte("w"), 0).Marshal()
	f.tests = 0
	for _, value := range [][]byte{evidence, fresh} {
		bad := append(sig.AppendBytes(nil, value), 0xde, 0xad)
		if out := ingestFlood(2, flood(3, bad)); out != nil {
			t.Errorf("malformed tail after a %d-byte value relayed %d messages", len(value), len(out))
		}
	}
	if f.tests != 0 || n.flood.held[string(fresh)] {
		t.Errorf("malformed messages cost %d tests, marked their value seen: %v", f.tests, n.flood.held[string(fresh)])
	}
}

func TestSMDropsHeldValueBeforeVerifying(t *testing.T) {
	f := newDedupeFixture(t, sig.SchemeEd25519, 6, 2, 2302)
	n, err := NewSMNode(f.cfg, 4, f.signers[4], f.dir)
	if err != nil {
		t.Fatal(err)
	}
	handle := func(round int, m model.Message) []model.Message {
		return n.flood.relay(nil, round-1, []model.Message{m}, n.admit)
	}
	signed := func(from int, c sig.Chain) model.Message {
		return model.Message{From: model.NodeID(from), Kind: model.KindSigned, Payload: c.Marshal()}
	}

	// Round 2: the sender's value arrives, is verified, held and relayed to
	// everyone but the sender and us.
	relays := handle(2, signed(0, f.chain(t, []byte("v"), 0)))
	if f.tests != 1 || len(relays) != f.cfg.N-2 || len(n.flood.held) != 1 {
		t.Fatalf("new value: %d tests, %d relays, |V|=%d; want 1, %d, 1", f.tests, len(relays), len(n.flood.held), f.cfg.N-2)
	}

	// Round 3: node 2's relay of the value we hold, its signature never
	// verified by this process.
	relay := signed(2, f.chain(t, []byte("v"), 0, 2))
	f.tests = 0
	if out := handle(3, relay); out != nil || f.tests != 0 {
		t.Errorf("held value: %d relays and %d predicate tests, want none", len(out), f.tests)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { handle(3, relay) }); allocs != 0 {
			t.Errorf("a chain for a held value allocates %.1f times, want 0", allocs)
		}
	}

	// A new value under a forged relay signature is verified, rejected and
	// not held; under the honest one it is held. Signer rules still bind:
	// a chain that does not start at the sender, repeats a signer or
	// carries our own name adds nothing.
	honest := signed(2, f.chain(t, []byte("u"), 0, 2))
	forged := model.Message{From: 2, Kind: model.KindSigned, Payload: append([]byte(nil), honest.Payload...)}
	forged.Payload[len(forged.Payload)-1] ^= 0x01
	f.tests = 0
	if out := handle(3, forged); out != nil || f.tests == 0 || len(n.flood.held) != 1 {
		t.Errorf("forged relay: %d relays, %d tests, |V|=%d; want a rejection by test", len(out), f.tests, len(n.flood.held))
	}
	for _, tc := range []struct {
		name  string
		round int
		m     model.Message
	}{
		{"not from the sender", 3, signed(2, f.chain(t, []byte("x"), 1, 2))},
		{"repeated signer", 3, signed(0, f.chain(t, []byte("x"), 0, 0))},
		{"our own signature", 4, signed(2, f.chain(t, []byte("x"), 0, 4, 2))},
	} {
		if out := handle(tc.round, tc.m); out != nil || len(n.flood.held) != 1 {
			t.Errorf("%s: %d relays, |V|=%d; want the chain ignored", tc.name, len(out), len(n.flood.held))
		}
	}
	if out := handle(3, honest); len(out) != f.cfg.N-3 || len(n.flood.held) != 2 {
		t.Errorf("honest relay of a new value: %d relays, |V|=%d; want %d, 2", len(out), len(n.flood.held), f.cfg.N-3)
	}
}

func TestDistinctValid(t *testing.T) {
	for _, tc := range []struct {
		ids  []model.NodeID
		want bool
	}{
		{nil, true},
		{[]model.NodeID{0, 3, 1}, true},
		{[]model.NodeID{0, 3, 0}, false},
		{[]model.NodeID{2, 2}, false},
		{[]model.NodeID{0, 4}, false},
		{[]model.NodeID{model.NoNode}, false},
	} {
		if got := distinctValid(tc.ids, 4); got != tc.want {
			t.Errorf("distinctValid(%v, 4) = %v, want %v", tc.ids, got, tc.want)
		}
	}
}

package adversary

import (
	"testing"

	"repro/internal/core"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Tests for the key-distribution handshake (paper Fig. 1) under this
// package's adversaries: an honest run establishing the baseline, and
// adversarial interleavings probing the G1/G2 guarantees the handshake's
// challenge-response step exists to provide.

// buildKeydist returns n keydist processes, the honest node handles, and
// the scheme, with overrides applied (overridden slots have a nil Node).
func buildKeydist(t *testing.T, n int, seed int64, overrides map[model.NodeID]sim.Process) ([]sim.Process, []*keydist.Node, sig.Scheme) {
	t.Helper()
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatalf("scheme: %v", err)
	}
	cfg := model.Config{N: n, T: 1}
	procs := make([]sim.Process, n)
	nodes := make([]*keydist.Node, n)
	for i := 0; i < n; i++ {
		id := model.NodeID(i)
		if p, ok := overrides[id]; ok {
			procs[i] = p
			continue
		}
		node, err := keydist.NewNode(cfg, id, scheme, sim.SeededReader(sim.NodeSeed(seed, i)))
		if err != nil {
			t.Fatalf("NewNode %v: %v", id, err)
		}
		nodes[i] = node
		procs[i] = node
	}
	return procs, nodes, scheme
}

func TestKeydistHonestHandshake(t *testing.T) {
	const n = 5
	procs, nodes, _ := buildKeydist(t, n, 11, nil)
	counters := metrics.NewCounters()
	cfg := model.Config{N: n, T: 1}
	if _, err := sim.RunInstance(cfg, procs, keydist.RoundsTotal, sim.WithCounters(counters)); err != nil {
		t.Fatalf("RunInstance: %v", err)
	}
	// Paper §3.1: 3n(n−1) messages in 3 communication rounds.
	if got, want := counters.Messages(), keydist.ExpectedMessages(n); got != want {
		t.Errorf("messages = %d, want 3n(n-1) = %d", got, want)
	}
	if got := counters.CommunicationRounds(); got != 3 {
		t.Errorf("communication rounds = %d, want 3", got)
	}
	for _, node := range nodes {
		if !node.Accepted() {
			t.Errorf("node %v did not accept all predicates", node.ID())
		}
		if d := node.Discoveries(); len(d) != 0 {
			t.Errorf("node %v discovered failures in an honest run: %v", node.ID(), d)
		}
	}
	// G2 in the honest case: every pair of correct nodes accepted the
	// same predicate for every node.
	for _, a := range nodes {
		for _, b := range nodes {
			for q := 0; q < n; q++ {
				if !a.Directory().AgreesWith(b.Directory(), model.NodeID(q)) {
					t.Errorf("directories of %v and %v disagree on %v", a.ID(), b.ID(), model.NodeID(q))
				}
			}
		}
	}
}

// checkG1G2 asserts the Theorem 2 guarantees after an adversarial run
// over nodes, nil at the faulty slots.
func checkG1G2(t *testing.T, nodes []*keydist.Node) {
	t.Helper()
	if err := core.CheckG1(nodes); err != nil {
		t.Error(err)
	}
	if err := core.CheckG2(nodes); err != nil {
		t.Error(err)
	}
}

func TestKeydistForeignClaimInterleaving(t *testing.T) {
	// Node 4 claims node 1's predicate as its own. It cannot answer the
	// challenge round (S3: no secret key), so no correct node may accept
	// the claim.
	const n, faulty = 5, model.NodeID(4)
	cfg := model.Config{N: n, T: 1}
	// Two-phase build: the adversary needs its victim's predicate, which
	// exists only after the honest nodes are built.
	procs, nodes, _ := buildKeydist(t, n, 23, map[model.NodeID]sim.Process{faulty: sim.Silent{}})
	procs[faulty] = NewForeignClaimNode(cfg, faulty, nodes[1].Signer().Predicate())
	if _, err := sim.RunInstance(cfg, procs, keydist.RoundsTotal); err != nil {
		t.Fatalf("RunInstance: %v", err)
	}
	checkG1G2(t, nodes)
	// Stronger than G1: the unanswered claim must not be accepted at all.
	for _, node := range nodes {
		if node == nil {
			continue
		}
		if _, ok := node.Directory().PredicateOf(faulty); ok {
			t.Errorf("%v accepted a predicate for %v, whose challenge went unanswered", node.ID(), faulty)
		}
	}
}

func TestKeydistChallengeRelayInterleaving(t *testing.T) {
	// The laundering interleaving: node 4 claims node 1's predicate and
	// relays the challenges it receives to node 1, replaying whatever
	// node 1 signs. The challenge's {challenger, challenged} name
	// binding must make every replay fail.
	const n, faulty = 5, model.NodeID(4)
	const victim = model.NodeID(1)
	cfg := model.Config{N: n, T: 1}
	procs, nodes, _ := buildKeydist(t, n, 37, map[model.NodeID]sim.Process{faulty: sim.Silent{}})
	procs[faulty] = NewChallengeRelayNode(cfg, faulty, victim, nodes[victim].Signer().Predicate())
	if _, err := sim.RunInstance(cfg, procs, keydist.RoundsTotal); err != nil {
		t.Fatalf("RunInstance: %v", err)
	}
	checkG1G2(t, nodes)
	for _, node := range nodes {
		if node == nil || node.ID() == victim {
			continue
		}
		if _, ok := node.Directory().PredicateOf(faulty); ok {
			t.Errorf("%v accepted the laundered claim for %v", node.ID(), faulty)
		}
	}
}

func TestKeydistSharedKeyGroupAcceptedConsistently(t *testing.T) {
	// The G3 gap the paper documents: key-sharing colluders run the
	// handshake honestly with one key and ARE accepted — with identical
	// predicates — while G1/G2 stay intact for the correct nodes.
	const n = 6
	cfg := model.Config{N: n, T: 2}
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatalf("scheme: %v", err)
	}
	group, err := NewSharedKeyGroup(cfg, scheme, sim.SeededReader(101), 4, 5)
	if err != nil {
		t.Fatalf("NewSharedKeyGroup: %v", err)
	}
	procs, nodes, _ := buildKeydist(t, n, 53, map[model.NodeID]sim.Process{
		4: group[0],
		5: group[1],
	})
	if _, err := sim.RunInstance(cfg, procs, keydist.RoundsTotal); err != nil {
		t.Fatalf("RunInstance: %v", err)
	}
	for _, node := range nodes {
		if node == nil {
			continue
		}
		p4, ok4 := node.Directory().PredicateOf(4)
		p5, ok5 := node.Directory().PredicateOf(5)
		if !ok4 || !ok5 {
			t.Fatalf("%v rejected an honestly-run sharer (ok4=%v ok5=%v)", node.ID(), ok4, ok5)
		}
		if p4.Fingerprint() != p5.Fingerprint() {
			t.Errorf("%v holds different predicates for the sharers", node.ID())
		}
		if p4.Fingerprint() != group[0].Signer().Predicate().Fingerprint() {
			t.Errorf("%v holds a predicate that is not the shared key's", node.ID())
		}
	}
}

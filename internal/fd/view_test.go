package fd_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// The paper's §2 definition: "If a node's view of a run differs from its
// views of all failure-free runs, it discovers a failure." For the chain
// protocol with fixed keys and a deterministic signature scheme
// (Ed25519), the failure-free run is UNIQUE, so the definition becomes
// testable bit-for-bit:
//
//	soundness:    a node that discovers must have a view different from
//	              the failure-free run's;
//	completeness: a node whose view differs must discover (or be unable
//	              to distinguish — which for this protocol never happens:
//	              every view deviation is detectable).
//
// We execute the failure-free reference run, then adversarial runs with
// the SAME keys, and compare per-node views.

// runViews executes the chain protocol and returns views + nodes.
func runViews(t *testing.T, f *fixture, overrides map[model.NodeID]sim.Process, value []byte) ([]model.View, []*fd.ChainNode) {
	t.Helper()
	procs, nodes := f.chainProcs(t, value)
	for id, p := range overrides {
		procs[id] = p
		nodes[id] = nil
	}
	rec := &sim.RecordingTracer{}
	eng, err := sim.New(f.cfg, procs, sim.WithTracer(rec))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	eng.Run(fd.ChainEngineRounds(f.cfg.T))
	return rec.Views(f.cfg.N), nodes
}

// viewsEqual compares two views round-by-round, message-by-message.
func viewsEqual(a, b model.View) bool {
	if a.Len() != b.Len() {
		// Trailing empty rounds are equivalent: pad comparison.
		max := a.Len()
		if b.Len() > max {
			max = b.Len()
		}
		for r := 1; r <= max; r++ {
			if !reflect.DeepEqual(normalize(a.Received(r)), normalize(b.Received(r))) {
				return false
			}
		}
		return true
	}
	for r := 1; r <= a.Len(); r++ {
		if !reflect.DeepEqual(normalize(a.Received(r)), normalize(b.Received(r))) {
			return false
		}
	}
	return true
}

func normalize(msgs []model.Message) []model.Message {
	if len(msgs) == 0 {
		return nil
	}
	return msgs
}

func TestViewDefinitionOfDiscovery(t *testing.T) {
	f := newFixture(t, 6, 2, 500)
	value := []byte("deterministic value")

	// Reference: the unique failure-free run.
	refViews, refNodes := runViews(t, f, nil, value)
	for _, n := range refNodes {
		if n.Outcome().Discovery != nil {
			t.Fatalf("reference run had a discovery: %v", n.Outcome())
		}
	}

	// Ed25519 is deterministic, so a second failure-free run has
	// identical views — establishing that the reference is canonical.
	refViews2, _ := runViews(t, f, nil, value)
	for i := range refViews {
		if !viewsEqual(refViews[i], refViews2[i]) {
			t.Fatalf("failure-free runs not deterministic at node %d", i)
		}
	}

	// Adversarial runs: for every correct node, discovery ⟺ view deviation.
	scenarios := map[string]map[model.NodeID]sim.Process{
		"silent-relay": {1: sim.Silent{}},
		"tamper-relay": {1: adversary.Wrap(mustChainNode(t, f, 1, value),
			adversary.TamperPayload(model.KindChainValue, adversary.FlipByte(7)))},
		"split-disseminator": {2: adversary.Wrap(mustChainNode(t, f, 2, value),
			adversary.DropTo(model.NewNodeSet(4)))},
	}
	for name, overrides := range scenarios {
		t.Run(name, func(t *testing.T) {
			views, nodes := runViews(t, f, overrides, value)
			for i, n := range nodes {
				if n == nil {
					continue // faulty slot
				}
				deviates := !viewsEqual(views[i], refViews[i])
				discovered := n.Outcome().Discovery != nil
				if deviates != discovered {
					t.Errorf("%v: view-deviation=%v but discovered=%v (outcome %v)",
						n.Outcome().Node, deviates, discovered, n.Outcome())
				}
			}
		})
	}
}

// mustChainNode builds a correct chain node on the fixture.
func mustChainNode(t *testing.T, f *fixture, id model.NodeID, value []byte) *fd.ChainNode {
	t.Helper()
	var opts []fd.ChainOption
	if id == fd.Sender {
		opts = append(opts, fd.WithValue(value))
	}
	n, err := fd.NewChainNode(f.cfg, id, f.signers[id], f.dirs[id], opts...)
	if err != nil {
		t.Fatalf("NewChainNode: %v", err)
	}
	return n
}

// TestViewDefinitionRandomized extends the ⟺ check to random single-node
// misbehaviours.
func TestViewDefinitionRandomized(t *testing.T) {
	f := newFixture(t, 6, 2, 501)
	value := []byte("v")
	refViews, _ := runViews(t, f, nil, value)

	for s := 0; s < 40; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		victim := model.NodeID(rng.Intn(f.cfg.N))
		var p sim.Process
		switch rng.Intn(3) {
		case 0:
			p = sim.Silent{}
		case 1:
			p = adversary.Wrap(mustChainNode(t, f, victim, value),
				adversary.TamperPayload(model.KindChainValue, adversary.FlipByte(rng.Intn(64))))
		default:
			p = adversary.Wrap(mustChainNode(t, f, victim, value),
				adversary.DropTo(model.NewNodeSet(model.NodeID(rng.Intn(f.cfg.N)))))
		}
		views, nodes := runViews(t, f, map[model.NodeID]sim.Process{victim: p}, value)
		for i, n := range nodes {
			if n == nil {
				continue
			}
			deviates := !viewsEqual(views[i], refViews[i])
			discovered := n.Outcome().Discovery != nil
			if deviates != discovered {
				t.Errorf("seed %d victim %v: %v deviation=%v discovered=%v",
					s, victim, n.Outcome().Node, deviates, discovered)
			}
		}
	}
}

// TestSessionReuseManyRuns reuses one set of directories for many
// sequential runs — the paper's "arbitrarily many Failure Discovery
// protocols" after one key distribution.
func TestSessionReuseManyRuns(t *testing.T) {
	f := newFixture(t, 8, 2, 502)
	for k := 0; k < 20; k++ {
		value := []byte(fmt.Sprintf("run-%d", k))
		procs, nodes := f.chainProcs(t, value)
		counters := runFD(t, f.cfg, procs, fd.ChainEngineRounds(f.cfg.T))
		if got := counters.Messages(); got != 7 {
			t.Fatalf("run %d: %d messages", k, got)
		}
		assertAllDecided(t, nodes, model.NewNodeSet(), value)
	}
}

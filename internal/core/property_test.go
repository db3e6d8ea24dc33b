package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/sim"
)

// Randomized property tests: the paper's F1–F3 are invariants over ALL
// Byzantine behaviours, so we sample the behaviour space — random fault
// placement, random behaviour per faulty node, including fully random
// "chaos" processes that spray arbitrary bytes — and assert the
// properties on every run. Failures print the scenario seed for exact
// reproduction.

// chaosProcess sends random bytes with random kinds to random nodes at
// random rounds: the bluntest Byzantine node. It doubles as a fuzzer for
// every decoder on the receive path (none may panic).
func chaosProcess(rng *rand.Rand, cfg model.Config) sim.Process {
	return sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		var out []model.Message
		for i := 0; i < rng.Intn(4); i++ {
			payload := make([]byte, rng.Intn(64))
			rng.Read(payload)
			out = append(out, model.Message{
				To:      model.NodeID(rng.Intn(cfg.N)),
				Kind:    model.MessageKind(rng.Intn(14)),
				Payload: payload,
			})
		}
		return out
	})
}

// randomBehaviour picks one faulty behaviour for node id.
func randomBehaviour(rng *rand.Rand, c *core.Cluster, id model.NodeID, correct func() sim.Process) sim.Process {
	cfg := c.Config()
	switch rng.Intn(7) {
	case 0:
		return sim.Silent{}
	case 1:
		return chaosProcess(rng, cfg)
	case 2:
		return adversary.Wrap(correct(), adversary.DropAll(1+rng.Intn(4)))
	case 3:
		victims := model.NewNodeSet()
		for v := 0; v < cfg.N; v++ {
			if rng.Intn(2) == 0 {
				victims.Add(model.NodeID(v))
			}
		}
		return adversary.Wrap(correct(), adversary.DropTo(victims))
	case 4:
		return adversary.Wrap(correct(),
			adversary.TamperPayload(model.KindChainValue, adversary.FlipByte(rng.Intn(32))))
	case 5:
		signer, err := c.Signer(id)
		if err != nil {
			return sim.Silent{}
		}
		return adversary.NewResignRelay(cfg, id, signer, []byte("forged"))
	default:
		return adversary.Wrap(correct(), adversary.DuplicateTo(model.NodeID(rng.Intn(cfg.N))))
	}
}

func TestPropertyF1F2F3RandomizedChain(t *testing.T) {
	const scenarios = 150
	for s := 0; s < scenarios; s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(s)))
			n := 4 + rng.Intn(6)         // 4..9
			tol := 1 + rng.Intn((n+1)/2) // 1..⌈n/2⌉
			if tol >= n {
				tol = n - 1
			}
			c, err := core.New(model.Config{N: n, T: tol}, core.WithSeed(int64(s)))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if _, err := c.EstablishAuthentication(); err != nil {
				t.Fatalf("EstablishAuthentication: %v", err)
			}

			// Random fault placement: up to tol faulty nodes.
			faulty := model.NewNodeSet()
			for len(faulty) < rng.Intn(tol+1) {
				faulty.Add(model.NodeID(rng.Intn(n)))
			}
			value := []byte(fmt.Sprintf("value-%d", s))
			var opts []core.RunOption
			for _, id := range faulty.Sorted() {
				id := id
				correct := func() sim.Process {
					signer, err := c.Signer(id)
					if err != nil {
						t.Fatalf("Signer: %v", err)
					}
					dir, err := c.Directory(id)
					if err != nil {
						t.Fatalf("Directory: %v", err)
					}
					var nodeOpts []fd.ChainOption
					if id == fd.Sender {
						nodeOpts = append(nodeOpts, fd.WithValue(value))
					}
					node, err := fd.NewChainNode(c.Config(), id, signer, dir, nodeOpts...)
					if err != nil {
						t.Fatalf("NewChainNode: %v", err)
					}
					return node
				}
				opts = append(opts, core.WithProcess(id, randomBehaviour(rng, c, id, correct)))
			}

			rep, err := c.RunFailureDiscovery(value, opts...)
			if err != nil {
				t.Fatalf("RunFailureDiscovery: %v", err)
			}
			if err := core.CheckF1(rep.Outcomes, faulty); err != nil {
				t.Errorf("faulty=%v: %v", faulty, err)
			}
			if err := core.CheckF2(rep.Outcomes, faulty); err != nil {
				t.Errorf("faulty=%v: %v", faulty, err)
			}
			if err := core.CheckF3(rep.Outcomes, faulty, fd.Sender, value); err != nil {
				t.Errorf("faulty=%v: %v", faulty, err)
			}
		})
	}
}

func TestPropertyF1F2F3RandomizedNonAuth(t *testing.T) {
	const scenarios = 150
	for s := 0; s < scenarios; s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			n := 4 + rng.Intn(6)
			tol := 1 + rng.Intn(n/2)
			c, err := core.New(model.Config{N: n, T: tol}, core.WithSeed(int64(s)))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			faulty := model.NewNodeSet()
			for len(faulty) < rng.Intn(tol+1) {
				faulty.Add(model.NodeID(rng.Intn(n)))
			}
			value := []byte(fmt.Sprintf("value-%d", s))
			var opts []core.RunOption
			for _, id := range faulty.Sorted() {
				var p sim.Process
				switch rng.Intn(4) {
				case 0:
					p = sim.Silent{}
				case 1:
					p = chaosProcess(rng, c.Config())
				case 2:
					p = adversary.NewLyingEchoer(c.Config(), id, []byte("lie"), randomSubset(rng, n))
				default:
					faceOne := model.NewNodeSet()
					for id, split := 0, rng.Intn(n); id < split; id++ {
						faceOne.Add(model.NodeID(id))
					}
					p = adversary.NewEquivocatingPlainSenderFaces(c.Config(), []byte("a"), []byte("b"), faceOne)
				}
				opts = append(opts, core.WithProcess(id, p))
			}
			opts = append(opts, core.WithProtocol(core.ProtocolNonAuth))
			rep, err := c.RunFailureDiscovery(value, opts...)
			if err != nil {
				t.Fatalf("RunFailureDiscovery: %v", err)
			}
			if err := core.CheckF1(rep.Outcomes, faulty); err != nil {
				t.Errorf("faulty=%v: %v", faulty, err)
			}
			if err := core.CheckF2(rep.Outcomes, faulty); err != nil {
				t.Errorf("faulty=%v: %v", faulty, err)
			}
			if err := core.CheckF3(rep.Outcomes, faulty, fd.Sender, value); err != nil {
				t.Errorf("faulty=%v: %v", faulty, err)
			}
		})
	}
}

func randomSubset(rng *rand.Rand, n int) model.NodeSet {
	s := model.NewNodeSet()
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(model.NodeID(i))
		}
	}
	return s
}

// TestPropertyKeyDistChaos fuzzes the key-distribution path: chaos nodes
// spraying random bytes must never panic a correct node nor poison its
// directory with unverified predicates.
func TestPropertyKeyDistChaos(t *testing.T) {
	const scenarios = 100
	for s := 0; s < scenarios; s++ {
		rng := rand.New(rand.NewSource(int64(2000 + s)))
		n := 3 + rng.Intn(5)
		cfg := model.Config{N: n, T: n - 1}
		c, err := core.New(cfg, core.WithSeed(int64(s)))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		faulty := model.NewNodeSet()
		for len(faulty) < 1+rng.Intn(n-1) {
			faulty.Add(model.NodeID(rng.Intn(n)))
		}
		var opts []core.RunOption
		for _, id := range faulty.Sorted() {
			opts = append(opts, core.WithProcess(id, chaosProcess(rng, cfg)))
		}
		if _, err := c.EstablishAuthentication(opts...); err != nil {
			t.Fatalf("EstablishAuthentication: %v", err)
		}
		// Theorem 2 regardless of the chaos: no chaos node passes for a
		// correct one, and correct nodes hold each other's true keys.
		if err := core.CheckG1(c.Nodes()); err != nil {
			t.Errorf("seed %d: %v", s, err)
		}
		if err := core.CheckG2(c.Nodes()); err != nil {
			t.Errorf("seed %d: %v", s, err)
		}
	}
}

// TestCheckG1G2 shows the Theorem 2 checkers can fail — on honestly
// established directories doctored by hand — and hold under each of
// experiment E5's key-distribution attacks.
func TestCheckG1G2(t *testing.T) {
	cfg := model.Config{N: 6, T: 2}
	property := func(err error) string {
		var v *core.PropertyViolation
		if errors.As(err, &v) {
			return v.Property
		}
		return ""
	}
	// established returns a seeded cluster's post-setup nodes; P1's
	// predicate is the same in every one of them (same key seed).
	established := func(opts ...core.RunOption) []*keydist.Node {
		c := newCluster(t, cfg.N, cfg.T, 31)
		if _, err := c.EstablishAuthentication(opts...); err != nil {
			t.Fatalf("EstablishAuthentication: %v", err)
		}
		return c.Nodes()
	}
	honest := established()
	victim, scheme := honest[1].Signer().Predicate(), honest[1].Scheme()
	mixed, err := adversary.NewMixedPredicateNode(cfg, 5, scheme, sim.SeededReader(32), model.NewNodeSet(0, 1))
	if err != nil {
		t.Fatalf("NewMixedPredicateNode: %v", err)
	}
	shared, err := adversary.NewSharedKeyGroup(cfg, scheme, sim.SeededReader(32), 4, 5)
	if err != nil {
		t.Fatalf("NewSharedKeyGroup: %v", err)
	}
	for _, tc := range []struct {
		name           string
		nodes          func() []*keydist.Node
		wantG1, wantG2 string
	}{
		{"honest", func() []*keydist.Node { return honest }, "", ""},
		{"a correct node's predicate accepted under a faulty id", func() []*keydist.Node {
			nodes := append([]*keydist.Node(nil), established()...)
			nodes[5] = nil // P5 turns out to be faulty …
			nodes[0].Directory().Accept(5, nodes[1].Signer().Predicate())
			return nodes // … and P0 took P1's key for P5's
		}, "G1", ""},
		{"a correct node's entry replaced", func() []*keydist.Node {
			nodes := established()
			nodes[0].Directory().Accept(1, nodes[2].Signer().Predicate())
			return nodes
		}, "", "G2"},
		{"foreign-claim", func() []*keydist.Node {
			return established(core.WithProcess(5, adversary.NewForeignClaimNode(cfg, 5, victim)))
		}, "", ""},
		{"challenge-relay", func() []*keydist.Node {
			return established(core.WithProcess(5, adversary.NewChallengeRelayNode(cfg, 5, 1, victim)))
		}, "", ""},
		{"mixed-predicate", func() []*keydist.Node { return established(core.WithProcess(5, mixed)) }, "", ""},
		{"shared-key", func() []*keydist.Node {
			return established(core.WithProcess(4, shared[0]), core.WithProcess(5, shared[1]))
		}, "", ""},
		{"silent", func() []*keydist.Node { return established(core.WithProcess(5, sim.Silent{})) }, "", ""},
	} {
		nodes := tc.nodes()
		// The stolen predicate is the one P1 holds in this very run: key
		// material is a pure function of the seed.
		if nodes[1].Signer().Predicate().Fingerprint() != victim.Fingerprint() {
			t.Fatalf("%s: P1's predicate differs from the honest establishment's", tc.name)
		}
		if err := core.CheckG1(nodes); property(err) != tc.wantG1 {
			t.Errorf("%s: CheckG1 = %v, want %q", tc.name, err, tc.wantG1)
		}
		if err := core.CheckG2(nodes); property(err) != tc.wantG2 {
			t.Errorf("%s: CheckG2 = %v, want %q", tc.name, err, tc.wantG2)
		}
	}
}

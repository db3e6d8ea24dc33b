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
// every decoder on the receive path (none may panic). Its stream is its
// own, seeded from rng once when it is built: a parallel round steps
// processes at once, so two chaos nodes must not draw from one stream.
func chaosProcess(rng *rand.Rand, cfg model.Config) sim.Process {
	rng = rand.New(rand.NewSource(rng.Int63()))
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
		return adversary.Wrap(correct(), adversary.Resign(cfg, id, signer, []byte("forged")))
	default:
		return adversary.Wrap(correct(), adversary.FloodTo([]model.NodeID{model.NodeID(rng.Intn(cfg.N))}))
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
					opts = append(opts, core.WithWrappedProcess(id, adversary.LyingEcho(c.Config(), id, []byte("lie"), randomSubset(rng, n))))
					continue
				default:
					faceOne := model.NewNodeSet()
					for id, split := 0, rng.Intn(n); id < split; id++ {
						faceOne.Add(model.NodeID(id))
					}
					// The sender's broadcast of "a" from any slot, "b"
					// outside faceOne.
					sender, err := fd.NewNonAuthNode(model.Config{N: n}, fd.Sender, fd.WithNonAuthValue([]byte("a")))
					if err != nil {
						t.Fatalf("NewNonAuthNode: %v", err)
					}
					p = adversary.Wrap(sender, adversary.TwoFaced(faceOne, func([]byte) []byte { return []byte("b") }))
				}
				opts = append(opts, core.WithProcess(id, p))
			}
			_, honest, err := c.Run("nonauth", fd.NonAuthEngineRounds(tol), func(id model.NodeID) (sim.Process, error) {
				if id == fd.Sender {
					return fd.NewNonAuthNode(c.Config(), id, fd.WithNonAuthValue(value))
				}
				return fd.NewNonAuthNode(c.Config(), id)
			}, opts...)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			var outcomes []model.Outcome
			for _, p := range honest {
				if p != nil {
					outcomes = append(outcomes, p.(fd.Outcomer).Outcome())
				}
			}
			if err := core.CheckF1(outcomes, faulty); err != nil {
				t.Errorf("faulty=%v: %v", faulty, err)
			}
			if err := core.CheckF2(outcomes, faulty); err != nil {
				t.Errorf("faulty=%v: %v", faulty, err)
			}
			if err := core.CheckF3(outcomes, faulty, fd.Sender, value); err != nil {
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
		if err := core.CheckG1(c.Nodes(), faulty); err != nil {
			t.Errorf("seed %d: %v", s, err)
		}
		if err := core.CheckG2(c.Nodes(), faulty); err != nil {
			t.Errorf("seed %d: %v", s, err)
		}
	}
}

// TestCheckG1G2 shows the Theorem 2 checkers can fail — on honestly
// established directories doctored by hand, whether the faulty node kept
// its keys or not — and hold under each of experiment E5's
// key-distribution attacks.
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
	keyRand := sim.SeededReader(32)
	keyOne, err := scheme.Generate(keyRand)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	keyTwo, err := scheme.Generate(keyRand)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	mixed := adversary.NewKeyFaces(model.NewNodeSet(0, 1), keyOne, keyTwo)
	sharedKey, err := scheme.Generate(sim.SeededReader(32))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	shared := adversary.NewKeyFaces(nil, sharedKey, sharedKey)
	p5 := model.NewNodeSet(5)
	for _, tc := range []struct {
		name           string
		faulty         model.NodeSet
		nodes          func() []*keydist.Node
		wantG1, wantG2 string
	}{
		{"honest", nil, func() []*keydist.Node { return honest }, "", ""},
		// P5 turns out to be faulty, and kept its keys …
		{"a correct node's predicate accepted under a faulty id", p5, func() []*keydist.Node {
			nodes := established()
			nodes[0].Directory().Accept(5, nodes[1].Signer().Predicate())
			return nodes // … and P0 took P1's key for P5's
		}, "G1", ""},
		{"the same, P5 keeping no keys", p5, func() []*keydist.Node {
			nodes := append([]*keydist.Node(nil), established()...)
			nodes[5] = nil
			nodes[0].Directory().Accept(5, nodes[1].Signer().Predicate())
			return nodes
		}, "G1", ""},
		{"a correct node's entry replaced", nil, func() []*keydist.Node {
			nodes := established()
			nodes[0].Directory().Accept(1, nodes[2].Signer().Predicate())
			return nodes
		}, "", "G2"},
		{"foreign-claim", p5, func() []*keydist.Node {
			return established(core.WithWrappedProcess(5, adversary.ForeignClaim(victim)))
		}, "", ""},
		{"challenge-relay", p5, func() []*keydist.Node {
			return established(core.WithWrappedProcess(5, adversary.ChallengeRelay(cfg, 5, 1, victim)))
		}, "", ""},
		{"mixed-predicate", p5, func() []*keydist.Node { return established(core.WithWrappedProcess(5, mixed.Wrap)) }, "", ""},
		{"shared-key", model.NewNodeSet(4, 5), func() []*keydist.Node {
			return established(core.WithWrappedProcess(4, shared.Wrap), core.WithWrappedProcess(5, shared.Wrap))
		}, "", ""},
		{"silent", p5, func() []*keydist.Node { return established(core.WithProcess(5, sim.Silent{})) }, "", ""},
	} {
		nodes := tc.nodes()
		// The stolen predicate is the one P1 holds in this very run: key
		// material is a pure function of the seed.
		if nodes[1].Signer().Predicate().Fingerprint() != victim.Fingerprint() {
			t.Fatalf("%s: P1's predicate differs from the honest establishment's", tc.name)
		}
		if err := core.CheckG1(nodes, tc.faulty); property(err) != tc.wantG1 {
			t.Errorf("%s: CheckG1 = %v, want %q", tc.name, err, tc.wantG1)
		}
		if err := core.CheckG2(nodes, tc.faulty); property(err) != tc.wantG2 {
			t.Errorf("%s: CheckG2 = %v, want %q", tc.name, err, tc.wantG2)
		}
	}
}

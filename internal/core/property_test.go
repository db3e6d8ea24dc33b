package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fd"
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
		var opts []core.KeyDistOption
		for _, id := range faulty.Sorted() {
			opts = append(opts, core.WithKeyDistProcess(id, chaosProcess(rng, cfg)))
		}
		rep, err := c.EstablishAuthentication(opts...)
		if err != nil {
			t.Fatalf("EstablishAuthentication: %v", err)
		}
		_ = rep
		// Correct nodes must have accepted each other (G2) regardless of
		// the chaos — unless n-|faulty| < 2, where there is nothing to check.
		for i := 0; i < n; i++ {
			if faulty.Contains(model.NodeID(i)) {
				continue
			}
			dir, err := c.Directory(model.NodeID(i))
			if err != nil {
				t.Fatalf("Directory: %v", err)
			}
			for j := 0; j < n; j++ {
				if faulty.Contains(model.NodeID(j)) {
					continue
				}
				if _, ok := dir.PredicateOf(model.NodeID(j)); !ok {
					t.Errorf("seed %d: %v lost %v's key to chaos", s, model.NodeID(i), model.NodeID(j))
				}
			}
		}
	}
}

package fd_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// vectorProcs builds correct vector nodes, each proposing "from-P<i>".
func vectorProcs(t *testing.T, f *fixture) ([]sim.Process, []*fd.VectorNode) {
	t.Helper()
	procs := make([]sim.Process, f.cfg.N)
	nodes := make([]*fd.VectorNode, f.cfg.N)
	for i := 0; i < f.cfg.N; i++ {
		n, err := fd.NewVectorNode(f.cfg, model.NodeID(i), f.signers[i], f.dirs[i],
			[]byte(fmt.Sprintf("from-P%d", i)))
		if err != nil {
			t.Fatalf("NewVectorNode(%d): %v", i, err)
		}
		nodes[i] = n
		procs[i] = n
	}
	return procs, nodes
}

func TestVectorFailureFree(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{3, 0}, {4, 1}, {6, 2}, {10, 3}, {2, 0}, {4, 3}, {8, 7}} {
		f := newFixture(t, tc.n, tc.t, int64(600+tc.n))
		procs, nodes := vectorProcs(t, f)
		counters := runFD(t, f.cfg, procs, fd.ChainEngineRounds(tc.t))

		// n parallel chains: n(n−1) messages, same t+1 rounds.
		msgs, rounds := declared(t, protocol.NameVector, protocol.Instance{N: tc.n, T: tc.t})
		if got := counters.Messages(); got != msgs || got != tc.n*(tc.n-1) {
			t.Errorf("n=%d t=%d: messages = %d, declared %d, want n(n-1)", tc.n, tc.t, got, msgs)
		}
		if got := counters.Snapshot().CommunicationRounds; got != rounds {
			t.Errorf("n=%d t=%d: rounds = %d, want %d", tc.n, tc.t, got, rounds)
		}
		// Every node decided every instance with the right value.
		for _, n := range nodes {
			for s := 0; s < tc.n; s++ {
				o := n.Outcome(model.NodeID(s))
				want := []byte(fmt.Sprintf("from-P%d", s))
				if !o.Decided || !bytes.Equal(o.Value, want) {
					t.Errorf("n=%d t=%d: instance %d at %v: %v", tc.n, tc.t, s, o.Node, o)
				}
			}
		}
	}
}

func TestVectorAgreementAcrossNodes(t *testing.T) {
	f := newFixture(t, 6, 2, 610)
	procs, nodes := vectorProcs(t, f)
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(f.cfg.T))
	// All nodes hold identical vectors.
	for _, n := range nodes[1:] {
		for s := model.NodeID(0); int(s) < f.cfg.N; s++ {
			ref, got := nodes[0].Outcome(s), n.Outcome(s)
			if !bytes.Equal(ref.Value, got.Value) {
				t.Errorf("instance %d: %v has %q, P0 has %q",
					s, got.Node, got.Value, ref.Value)
			}
		}
	}
}

func TestVectorSilentNodeOnlyItsInstanceSuffers(t *testing.T) {
	// Node 3 silent: instance 3 dies everywhere; instances routed THROUGH
	// node 3 also break (it is a relay/disseminator for neighbours); but
	// instances that never touch node 3 inside their chain prefix decide
	// normally — fault isolation per instance.
	f := newFixture(t, 6, 1, 620)
	procs, nodes := vectorProcs(t, f)
	faulty := model.NewNodeSet(3)
	procs[3] = sim.Silent{}
	nodes[3] = nil
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(f.cfg.T))

	for _, n := range nodes {
		if n == nil {
			continue
		}
		// With t=1, instance s's chain is P_s → P_{s+1} → tail. Node 3
		// participates as sender of instance 3 and disseminator of
		// instance 2. Those two instances fail; all others decide.
		for s := 0; s < f.cfg.N; s++ {
			o := n.Outcome(model.NodeID(s))
			touched := s == 3 || s == 2
			if o.Node == 3 {
				continue
			}
			switch {
			case touched && int(o.Node) != s && o.Decided && o.Discovery == nil:
				// Dissemination comes only from node 3 for instance 2, so
				// non-chain nodes must discover; the one exception is the
				// relay of instance 2 (node 3 IS its disseminator)... any
				// decided outcome here would mean the silent node spoke.
				if s == 2 && o.Node == 2 {
					continue // sender of instance 2 decided its own value
				}
				t.Errorf("instance %d at %v decided %q despite dead route", s, o.Node, o.Value)
			case !touched && !o.Decided && int(o.Node) != s:
				t.Errorf("instance %d at %v failed (%v) though its route avoids P3", s, o.Node, o.Discovery)
			}
		}
	}
	_ = faulty
}

func TestVectorTamperedInstanceDiscovered(t *testing.T) {
	// A node that tampers ONE instance's chain while behaving correctly
	// in the others: only the tampered instance is discovered.
	f := newFixture(t, 6, 2, 630)
	procs, nodes := vectorProcs(t, f)
	inner := nodes[1]
	procs[1] = adversary.Wrap(inner, func(round int, _, out []model.Message) []model.Message {
		for i := range out {
			s, chain, err := fd.UnmarshalVectorPayload(out[i].Payload)
			if err != nil || s != 0 {
				continue
			}
			chain[len(chain)/2] ^= 0x01
			out[i].Payload = fd.MarshalVectorPayload(s, chain)
		}
		return out
	})
	nodes[1] = nil
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(f.cfg.T))

	for _, n := range nodes {
		if n == nil {
			continue
		}
		// Instance 0 (through relay P1) must be discovered downstream of
		// the tamper; instance 4 and 5 (node 1 in the tail) decide fine.
		if o := n.Outcome(4); !o.Decided {
			t.Errorf("instance 4 at %v: %v", o.Node, o)
		}
	}
	// The node after the tamper (P2, position 2 of instance 0) discovers.
	var p2 *fd.VectorNode
	for _, n := range nodes {
		if n != nil && n.Outcome(0).Node == 2 {
			p2 = n
		}
	}
	if p2 == nil {
		t.Fatal("P2 missing")
	}
	if o := p2.Outcome(0); o.Discovery == nil {
		t.Errorf("P2 did not discover the tampered instance: %v", o)
	}
}

func TestVectorConstructorValidation(t *testing.T) {
	f := newFixture(t, 3, 1, 640)
	if _, err := fd.NewVectorNode(f.cfg, 0, f.signers[0], f.dirs[0], nil); err == nil {
		t.Error("nil proposal accepted")
	}
	if _, err := fd.NewVectorNode(f.cfg, 7, f.signers[0], f.dirs[0], []byte("v")); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := fd.NewVectorNode(f.cfg, 0, nil, f.dirs[0], []byte("v")); err == nil {
		t.Error("nil signer accepted")
	}
}

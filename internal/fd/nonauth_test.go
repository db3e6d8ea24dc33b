package fd_test

import (
	"bytes"
	"testing"

	"repro/internal/adversary"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// nonAuthProcs builds correct baseline nodes.
func nonAuthProcs(t *testing.T, cfg model.Config, value []byte) ([]sim.Process, []*fd.NonAuthNode) {
	t.Helper()
	procs := make([]sim.Process, cfg.N)
	nodes := make([]*fd.NonAuthNode, cfg.N)
	for i := 0; i < cfg.N; i++ {
		id := model.NodeID(i)
		var opts []fd.NonAuthOption
		if id == fd.Sender {
			opts = append(opts, fd.WithNonAuthValue(value))
		}
		n, err := fd.NewNonAuthNode(cfg, id, opts...)
		if err != nil {
			t.Fatalf("NewNonAuthNode(%d): %v", i, err)
		}
		nodes[i] = n
		procs[i] = n
	}
	return procs, nodes
}

func nonAuthDiscoverers(nodes []*fd.NonAuthNode, faulty model.NodeSet) []model.NodeID {
	var out []model.NodeID
	for _, n := range nodes {
		if n == nil {
			continue
		}
		o := n.Outcome()
		if !faulty.Contains(o.Node) && o.Discovery != nil {
			out = append(out, o.Node)
		}
	}
	return out
}

func TestNonAuthFailureFree(t *testing.T) {
	value := []byte("baseline value")
	cases := []struct{ n, t int }{
		{2, 0}, {4, 1}, {8, 2}, {16, 5}, {32, 10},
	}
	for _, tc := range cases {
		cfg := model.Config{N: tc.n, T: tc.t}
		procs, nodes := nonAuthProcs(t, cfg, value)
		counters := runFD(t, cfg, procs, fd.NonAuthEngineRounds(tc.t))

		// The baseline costs exactly (t+1)(n−1): the O(n·t) class the
		// paper quotes for non-authenticated failure discovery.
		msgs, rounds := declared(t, protocol.NameNonAuth, protocol.Instance{N: tc.n, T: tc.t})
		if got := counters.Messages(); got != msgs || got != (tc.t+1)*(tc.n-1) {
			t.Errorf("n=%d t=%d: messages = %d, declared %d, want (t+1)(n-1)", tc.n, tc.t, got, msgs)
		}
		if got := counters.Snapshot().CommunicationRounds; got != rounds {
			t.Errorf("n=%d t=%d: rounds = %d, want %d", tc.n, tc.t, got, rounds)
		}
		for _, n := range nodes {
			o := n.Outcome()
			if !o.Decided || !bytes.Equal(o.Value, value) {
				t.Errorf("n=%d t=%d: %v outcome = %v", tc.n, tc.t, o.Node, o)
			}
		}
	}
}

func TestNonAuthEquivocatingSenderDiscovered(t *testing.T) {
	// A faulty sender splits v1/v2. Any correct echoer rebroadcasts what
	// it got, so nodes holding the other value see the mismatch.
	cfg := model.Config{N: 6, T: 2}
	procs, nodes := nonAuthProcs(t, cfg, []byte("ignored"))
	faulty := model.NewNodeSet(0)
	sender, err := fd.NewNonAuthNode(cfg, fd.Sender, fd.WithNonAuthValue([]byte("v1")))
	if err != nil {
		t.Fatalf("NewNonAuthNode: %v", err)
	}
	procs[0] = adversary.Wrap(sender, adversary.TwoFaced(model.NewNodeSet(0, 1, 2), func([]byte) []byte { return []byte("v2") }))
	nodes[0] = nil
	runFD(t, cfg, procs, fd.NonAuthEngineRounds(cfg.T))

	if ds := nonAuthDiscoverers(nodes, faulty); len(ds) == 0 {
		t.Fatal("equivocating sender not discovered")
	}
	// F2 in its contrapositive: with a discovery, no agreement claim is
	// made — but check nobody decided BOTH values without discovery.
	seen := map[string]bool{}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if o := n.Outcome(); o.Decided {
			seen[string(o.Value)] = true
		}
	}
	if len(seen) > 1 && len(nonAuthDiscoverers(nodes, faulty)) == 0 {
		t.Error("correct nodes split with no discovery: F2 violated")
	}
}

func TestNonAuthLyingEchoerDiscovered(t *testing.T) {
	// A faulty echoer forges its echo toward some victims; the victims
	// compare against the sender's value and discover.
	cfg := model.Config{N: 6, T: 2}
	procs, nodes := nonAuthProcs(t, cfg, []byte("truth"))
	faulty := model.NewNodeSet(1)
	victims := model.NewNodeSet(3, 4)
	procs[1] = adversary.LyingEcho(cfg, 1, []byte("lie"), victims)(procs[1])
	nodes[1] = nil
	runFD(t, cfg, procs, fd.NonAuthEngineRounds(cfg.T))

	ds := nonAuthDiscoverers(nodes, faulty)
	got := make(map[model.NodeID]bool)
	for _, d := range ds {
		got[d] = true
	}
	if !got[3] || !got[4] {
		t.Errorf("victims did not discover the forged echo: %v", ds)
	}
	// Non-victims decided the true value.
	for _, n := range nodes {
		if n == nil {
			continue
		}
		o := n.Outcome()
		if o.Node == 5 && (!o.Decided || !bytes.Equal(o.Value, []byte("truth"))) {
			t.Errorf("non-victim P5 outcome = %v", o)
		}
	}
}

func TestNonAuthSilentSenderDiscovered(t *testing.T) {
	cfg := model.Config{N: 5, T: 1}
	procs, nodes := nonAuthProcs(t, cfg, []byte("ignored"))
	faulty := model.NewNodeSet(0)
	procs[0] = sim.Silent{}
	nodes[0] = nil
	runFD(t, cfg, procs, fd.NonAuthEngineRounds(cfg.T))

	// Every correct node discovers the missing value (F1 holds).
	for _, n := range nodes {
		if n == nil {
			continue
		}
		o := n.Outcome()
		if o.Discovery == nil {
			t.Errorf("%v did not discover the silent sender: %v", o.Node, o)
		}
	}
	_ = faulty
}

func TestNonAuthSilentEchoerDiscovered(t *testing.T) {
	cfg := model.Config{N: 5, T: 2}
	procs, nodes := nonAuthProcs(t, cfg, []byte("v"))
	faulty := model.NewNodeSet(2)
	procs[2] = sim.Silent{}
	nodes[2] = nil
	runFD(t, cfg, procs, fd.NonAuthEngineRounds(cfg.T))

	if ds := nonAuthDiscoverers(nodes, faulty); len(ds) == 0 {
		t.Fatal("silent echoer not discovered")
	}
}

func TestNonAuthT0SenderOnly(t *testing.T) {
	cfg := model.Config{N: 4, T: 0}
	procs, nodes := nonAuthProcs(t, cfg, []byte("v"))
	counters := runFD(t, cfg, procs, fd.NonAuthEngineRounds(0))
	if got, want := counters.Messages(), 3; got != want {
		t.Errorf("messages = %d, want %d", got, want)
	}
	for _, n := range nodes {
		if o := n.Outcome(); !o.Decided {
			t.Errorf("%v did not decide: %v", o.Node, o)
		}
	}
}

func TestNonAuthDuplicateEchoDiscovered(t *testing.T) {
	cfg := model.Config{N: 5, T: 2}
	procs, nodes := nonAuthProcs(t, cfg, []byte("v"))
	faulty := model.NewNodeSet(1)
	inner := nodes[1]
	procs[1] = adversary.Wrap(inner, func(round int, _, out []model.Message) []model.Message {
		if round == 2 && len(out) > 0 {
			return append(out, out[0]) // duplicate one echo
		}
		return out
	})
	nodes[1] = nil
	runFD(t, cfg, procs, fd.NonAuthEngineRounds(cfg.T))

	if ds := nonAuthDiscoverers(nodes, faulty); len(ds) == 0 {
		t.Fatal("duplicate echo not discovered")
	}
}

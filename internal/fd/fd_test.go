package fd_test

import (
	"bytes"
	"testing"

	"repro/internal/adversary"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// fixture holds a cluster with completed local authentication.
type fixture struct {
	cfg     model.Config
	signers []sig.Signer
	dirs    []*keydist.Directory
}

// newFixture runs the key-distribution protocol among n correct nodes and
// returns their signers and (locally authentic) directories.
func newFixture(t testing.TB, n, tol int, seed int64) *fixture {
	t.Helper()
	cfg := model.Config{N: n, T: tol}
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	f := &fixture{cfg: cfg}
	procs := make([]sim.Process, n)
	nodes := make([]*keydist.Node, n)
	for i := 0; i < n; i++ {
		node, err := keydist.NewNode(cfg, model.NodeID(i), scheme, sim.SeededReader(sim.NodeSeed(seed, i)))
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = node
		procs[i] = node
	}
	eng, err := sim.New(cfg, procs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	eng.Run(keydist.RoundsTotal)
	for _, node := range nodes {
		f.signers = append(f.signers, node.Signer())
		f.dirs = append(f.dirs, node.Directory())
	}
	return f
}

// chainProcs builds correct chain nodes for every slot, with the sender
// holding value.
func (f *fixture) chainProcs(t testing.TB, value []byte) ([]sim.Process, []*fd.ChainNode) {
	t.Helper()
	procs := make([]sim.Process, f.cfg.N)
	nodes := make([]*fd.ChainNode, f.cfg.N)
	for i := 0; i < f.cfg.N; i++ {
		id := model.NodeID(i)
		var opts []fd.ChainOption
		if id == fd.Sender {
			opts = append(opts, fd.WithValue(value))
		}
		n, err := fd.NewChainNode(f.cfg, id, f.signers[i], f.dirs[i], opts...)
		if err != nil {
			t.Fatalf("NewChainNode(%d): %v", i, err)
		}
		nodes[i] = n
		procs[i] = n
	}
	return procs, nodes
}

// newTestChain signs value with the fixture's sender key, for crafting
// protocol messages in adversarial tests.
func newTestChain(f *fixture, value []byte) (*sig.Chain, error) {
	return sig.NewChain(value, f.signers[0])
}

// run executes the chain protocol and returns counters.
func runFD(t testing.TB, cfg model.Config, procs []sim.Process, rounds int) *metrics.Counters {
	t.Helper()
	counters := metrics.NewCounters()
	eng, err := sim.New(cfg, procs, sim.WithCounters(counters))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	eng.Run(rounds)
	return counters
}

// assertOutcomes checks that every non-faulty chain node decided value.
func assertAllDecided(t *testing.T, nodes []*fd.ChainNode, faulty model.NodeSet, value []byte) {
	t.Helper()
	for _, n := range nodes {
		if n == nil || faulty.Contains(n.Outcome().Node) {
			continue
		}
		out := n.Outcome()
		if !out.Decided {
			t.Errorf("%v did not decide: %v", out.Node, out)
			continue
		}
		if !bytes.Equal(out.Value, value) {
			t.Errorf("%v decided %q, want %q", out.Node, out.Value, value)
		}
	}
}

// discoverers returns the IDs of correct nodes that discovered a failure.
func discoverers(nodes []*fd.ChainNode, faulty model.NodeSet) []model.NodeID {
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

func TestChainFailureFree(t *testing.T) {
	value := []byte("commit block 42")
	cases := []struct{ n, t int }{
		{2, 0}, {4, 0}, {4, 1}, {5, 2}, {8, 2}, {8, 7}, {16, 5}, {32, 10},
	}
	for _, tc := range cases {
		f := newFixture(t, tc.n, tc.t, int64(tc.n*100+tc.t))
		procs, nodes := f.chainProcs(t, value)
		counters := runFD(t, f.cfg, procs, fd.ChainEngineRounds(tc.t))

		// Paper Fig. 2: exactly n−1 messages, the minimum.
		if got, want := counters.Messages(), fd.ChainMessages(tc.n, tc.t); got != want {
			t.Errorf("n=%d t=%d: messages = %d, want %d", tc.n, tc.t, got, want)
		}
		if got, want := counters.CommunicationRounds(), fd.ChainCommunicationRounds(tc.n, tc.t); got != want {
			t.Errorf("n=%d t=%d: rounds = %d, want %d", tc.n, tc.t, got, want)
		}
		assertAllDecided(t, nodes, model.NewNodeSet(), value)
		if ds := discoverers(nodes, model.NewNodeSet()); len(ds) != 0 {
			t.Errorf("n=%d t=%d: spurious discoveries at %v", tc.n, tc.t, ds)
		}
	}
}

func TestChainRolesAssigned(t *testing.T) {
	if got := fd.RoleOf(0, 3); got != fd.RoleSender {
		t.Errorf("RoleOf(0,3) = %v", got)
	}
	if got := fd.RoleOf(0, 0); got != fd.RoleDisseminator {
		t.Errorf("RoleOf(0,0) = %v", got)
	}
	if got := fd.RoleOf(2, 3); got != fd.RoleRelay {
		t.Errorf("RoleOf(2,3) = %v", got)
	}
	if got := fd.RoleOf(3, 3); got != fd.RoleDisseminator {
		t.Errorf("RoleOf(3,3) = %v", got)
	}
	if got := fd.RoleOf(4, 3); got != fd.RoleTail {
		t.Errorf("RoleOf(4,3) = %v", got)
	}
}

func TestChainSilentRelayDiscovered(t *testing.T) {
	// A relay that never forwards: its successor discovers a missing
	// message at the deadline; nodes after that stay silent too and the
	// discovery propagates as further missing-message discoveries.
	f := newFixture(t, 6, 2, 1)
	procs, nodes := f.chainProcs(t, []byte("v"))
	faulty := model.NewNodeSet(1)
	procs[1] = sim.Silent{}
	nodes[1] = nil
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(2))

	ds := discoverers(nodes, faulty)
	if len(ds) == 0 {
		t.Fatal("no correct node discovered the silent relay")
	}
	// F1: everyone decided or discovered.
	for _, n := range nodes {
		if n == nil {
			continue
		}
		o := n.Outcome()
		if !o.Decided && o.Discovery == nil {
			t.Errorf("%v neither decided nor discovered", o.Node)
		}
	}
	// P_2 (the successor) must be among the discoverers, with a
	// missing-message reason.
	var p2 *model.Discovery
	for _, n := range nodes {
		if n != nil && n.Outcome().Node == 2 {
			p2 = n.Outcome().Discovery
		}
	}
	if p2 == nil || p2.Reason != model.ReasonMissingMessage {
		t.Errorf("P2 discovery = %v, want missing-message", p2)
	}
}

func TestChainTamperedPayloadDiscovered(t *testing.T) {
	// A relay that flips a bit in the chain it forwards: the next node's
	// signature check fails.
	f := newFixture(t, 6, 2, 2)
	procs, nodes := f.chainProcs(t, []byte("v"))
	faulty := model.NewNodeSet(1)
	inner := nodes[1]
	procs[1] = adversary.Wrap(inner, adversary.TamperPayload(model.KindChainValue, adversary.FlipByte(10)))
	nodes[1] = nil
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(2))

	ds := discoverers(nodes, faulty)
	if len(ds) == 0 {
		t.Fatal("tampered chain not discovered")
	}
}

func TestChainResignRelayDiscovered(t *testing.T) {
	// A relay that replaces the chain with a self-signed one of the right
	// LENGTH: only the sub-message signer check can catch it.
	f := newFixture(t, 6, 2, 3)
	procs, nodes := f.chainProcs(t, []byte("v"))
	faulty := model.NewNodeSet(1)
	procs[1] = adversary.NewResignRelay(f.cfg, 1, f.signers[1], []byte("forged"))
	nodes[1] = nil
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(2))

	ds := discoverers(nodes, faulty)
	if len(ds) == 0 {
		t.Fatal("resigned chain not discovered")
	}
	// The detector is P_2 and the reason is a bad chain (wrong signers).
	for _, n := range nodes {
		if n == nil || n.Outcome().Node != 2 {
			continue
		}
		d := n.Outcome().Discovery
		if d == nil {
			t.Fatal("P2 did not discover")
		}
		if d.Reason != model.ReasonBadChain && d.Reason != model.ReasonBadSignature {
			t.Errorf("P2 reason = %v, want bad-chain or bad-signature", d.Reason)
		}
	}
}

func TestChainWrongNameRelayDiscovered(t *testing.T) {
	// A relay embedding a wrong assignee name: Theorem 4's sub-message
	// assignment check fires at the next hop.
	f := newFixture(t, 6, 2, 4)
	procs, nodes := f.chainProcs(t, []byte("v"))
	faulty := model.NewNodeSet(1)
	procs[1] = adversary.NewWrongNameRelay(f.cfg, 1, f.signers[1], 4)
	nodes[1] = nil
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(2))

	if ds := discoverers(nodes, faulty); len(ds) == 0 {
		t.Fatal("wrong-name chain not discovered")
	}
}

func TestChainEquivocatingSenderDiscovered(t *testing.T) {
	// A sender that starts two chains: P_1 sees a duplicate — a view no
	// failure-free run produces — and discovers.
	f := newFixture(t, 6, 2, 5)
	procs, nodes := f.chainProcs(t, []byte("v"))
	faulty := model.NewNodeSet(0)
	procs[0] = adversary.NewEquivocatingSenderFaces(f.cfg, f.signers[0], []byte("v1"), []byte("v2"), model.NewNodeSet(0, 1, 2))
	nodes[0] = nil
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(2))

	if ds := discoverers(nodes, faulty); len(ds) == 0 {
		t.Fatal("equivocating sender not discovered")
	}
}

func TestChainSplitDisseminatorDiscovered(t *testing.T) {
	// The disseminator withholds the chain from part of the tail: the
	// starved tail nodes discover missing messages (contrast with the
	// small-range variant, where this splits silently).
	tol := 2
	f := newFixture(t, 7, tol, 6)
	procs, nodes := f.chainProcs(t, []byte("v"))
	faulty := model.NewNodeSet(model.NodeID(tol))
	victims := model.NewNodeSet(4, 5)
	procs[tol] = adversary.Wrap(nodes[tol], adversary.DropTo(victims))
	nodes[tol] = nil
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(tol))

	ds := discoverers(nodes, faulty)
	found := make(map[model.NodeID]bool)
	for _, d := range ds {
		found[d] = true
	}
	if !found[4] || !found[5] {
		t.Errorf("starved tail nodes did not discover: %v", ds)
	}
	// Non-starved tail nodes decided the value.
	for _, n := range nodes {
		if n == nil {
			continue
		}
		o := n.Outcome()
		if o.Node == 6 && !o.Decided {
			t.Errorf("non-starved tail P6 did not decide: %v", o)
		}
	}
}

func TestChainColludersCannotForgeSkippedSignature(t *testing.T) {
	// P_0 and P_2 are faulty and share keys; P_1 is correct. The
	// colluders cannot produce a chain carrying a value P_1 never signed:
	// P_2 forwards a fabricated chain (P_0-signed u, padded by P_2), and
	// P_3 discovers because layer 1 is not P_1's signature.
	f := newFixture(t, 6, 2, 7)
	procs, nodes := f.chainProcs(t, []byte("v"))
	faulty := model.NewNodeSet(0, 2)
	procs[0] = sim.Silent{} // P_0 skips P_1 entirely
	nodes[0] = nil
	procs[2] = adversary.NewResignRelay(f.cfg, 2, f.signers[0], []byte("forged"))
	nodes[2] = nil
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(2))

	// P_1 discovers silence; tail nodes discover the bad chain from P_2's
	// dissemination. Either way someone correct discovers, and NO correct
	// node decides "forged".
	if ds := discoverers(nodes, faulty); len(ds) == 0 {
		t.Fatal("collusion not discovered")
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if o := n.Outcome(); o.Decided && bytes.Equal(o.Value, []byte("forged")) {
			t.Errorf("%v accepted the forged value", o.Node)
		}
	}
}

func TestChainOuterOnlyAblationMissesInteriorForgery(t *testing.T) {
	// E6 ablation: with VerifyOuterOnly, a relay that re-signs a forged
	// interior is NOT detected by its successor — demonstrating that
	// Fig. 2's "check ... the submessages" is load-bearing.
	f := newFixture(t, 6, 2, 8)
	value := []byte("v")

	build := func(mode fd.VerifyMode) ([]sim.Process, []*fd.ChainNode) {
		procs := make([]sim.Process, f.cfg.N)
		nodes := make([]*fd.ChainNode, f.cfg.N)
		for i := 0; i < f.cfg.N; i++ {
			id := model.NodeID(i)
			opts := []fd.ChainOption{fd.WithVerifyMode(mode)}
			if id == fd.Sender {
				opts = append(opts, fd.WithValue(value))
			}
			n, err := fd.NewChainNode(f.cfg, id, f.signers[i], f.dirs[i], opts...)
			if err != nil {
				t.Fatalf("NewChainNode: %v", err)
			}
			nodes[i] = n
			procs[i] = n
		}
		return procs, nodes
	}

	for _, mode := range []fd.VerifyMode{fd.VerifyFull, fd.VerifyOuterOnly} {
		procs, nodes := build(mode)
		faulty := model.NewNodeSet(1)
		procs[1] = adversary.NewResignRelay(f.cfg, 1, f.signers[1], []byte("forged"))
		nodes[1] = nil
		runFD(t, f.cfg, procs, fd.ChainEngineRounds(f.cfg.T))
		ds := discoverers(nodes, faulty)
		switch mode {
		case fd.VerifyFull:
			if len(ds) == 0 {
				t.Error("full verification missed the forgery")
			}
		case fd.VerifyOuterOnly:
			// The forged chain is outer-signed by P_1 itself, so
			// outer-only verification accepts it; the forged value
			// propagates — the unsoundness made visible.
			accepted := false
			for _, n := range nodes {
				if n == nil {
					continue
				}
				if o := n.Outcome(); o.Decided && bytes.Equal(o.Value, []byte("forged")) {
					accepted = true
				}
			}
			if !accepted {
				t.Error("outer-only ablation unexpectedly caught the forgery (is the ablation wired?)")
			}
		}
	}
}

func TestChainT0DirectDissemination(t *testing.T) {
	f := newFixture(t, 5, 0, 9)
	procs, nodes := f.chainProcs(t, []byte("v"))
	counters := runFD(t, f.cfg, procs, fd.ChainEngineRounds(0))
	if got, want := counters.Messages(), 4; got != want {
		t.Errorf("messages = %d, want %d", got, want)
	}
	assertAllDecided(t, nodes, model.NewNodeSet(), []byte("v"))
}

func TestChainConstructorValidation(t *testing.T) {
	f := newFixture(t, 3, 1, 10)
	if _, err := fd.NewChainNode(f.cfg, 0, f.signers[0], f.dirs[0]); err == nil {
		t.Error("sender without value accepted")
	}
	if _, err := fd.NewChainNode(f.cfg, 9, f.signers[0], f.dirs[0]); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := fd.NewChainNode(f.cfg, 1, nil, f.dirs[1]); err == nil {
		t.Error("nil signer accepted")
	}
	if _, err := fd.NewChainNode(model.Config{N: 1, T: 0}, 0, f.signers[0], f.dirs[0]); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestChainDelayedRelayDiscovered(t *testing.T) {
	// A relay that forwards the CORRECT chain one round late: the bytes
	// are authentic, but no failure-free run delivers them in that round,
	// so the successor discovers — timing is part of the view.
	f := newFixture(t, 6, 2, 11)
	procs, nodes := f.chainProcs(t, []byte("v"))
	procs[1] = adversary.WrapBehaviors(nodes[1], adversary.DelayBy(1))
	nodes[1] = nil
	// One extra engine round so the delayed message actually lands.
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(2)+1)

	var p2 *model.Discovery
	for _, n := range nodes {
		if n != nil && n.Outcome().Node == 2 {
			p2 = n.Outcome().Discovery
		}
	}
	if p2 == nil {
		t.Fatal("successor did not discover the delayed chain")
	}
	if p2.Reason != model.ReasonMissingMessage && p2.Reason != model.ReasonUnexpectedMessage {
		t.Errorf("reason = %v, want missing or unexpected", p2.Reason)
	}
}

func TestChainDuplicateDisseminationDiscovered(t *testing.T) {
	// A disseminator that sends the (valid!) chain twice to the same tail
	// node: a duplicate is a view deviation even when every byte checks.
	f := newFixture(t, 6, 2, 12)
	procs, nodes := f.chainProcs(t, []byte("v"))
	faulty := model.NewNodeSet(2)
	_ = faulty
	procs[2] = adversary.Wrap(nodes[2], func(round int, out []model.Message) []model.Message {
		for _, m := range out {
			if m.To == 4 {
				return append(out, m)
			}
		}
		return out
	})
	nodes[2] = nil
	runFD(t, f.cfg, procs, fd.ChainEngineRounds(2))

	found := false
	for _, d := range discoverers(nodes, faulty) {
		if d == 4 {
			found = true
		}
	}
	if !found {
		t.Error("duplicated dissemination not discovered by the target")
	}
	// The other tail nodes decided normally: the fault is contained.
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if o := n.Outcome(); o.Node == 5 && !o.Decided {
			t.Errorf("P5 outcome: %v", o)
		}
	}
}

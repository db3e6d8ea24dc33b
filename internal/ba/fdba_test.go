package ba_test

import (
	"bytes"
	"testing"

	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// fdbaProcs builds correct FDBA nodes.
func fdbaProcs(t *testing.T, cfg model.Config, signers []sig.Signer, dirFor func(int) sig.Directory, value []byte) ([]sim.Process, []*ba.FDBANode) {
	t.Helper()
	procs := make([]sim.Process, cfg.N)
	nodes := make([]*ba.FDBANode, cfg.N)
	for i := 0; i < cfg.N; i++ {
		n, err := ba.NewFDBANode(cfg, model.NodeID(i), signers[i], dirFor(i), value)
		if err != nil {
			t.Fatalf("NewFDBANode(%d): %v", i, err)
		}
		nodes[i] = n
		procs[i] = n
	}
	return procs, nodes
}

func TestFDBAFailureFreeCostsSameAsFD(t *testing.T) {
	// The headline of the Hadzilacos–Halpern extension: failure-free runs
	// cost exactly the FD protocol's n−1 messages — no fallback traffic.
	for _, tc := range []struct{ n, t int }{{4, 1}, {6, 2}, {10, 3}} {
		cfg := model.Config{N: tc.n, T: tc.t}
		signers, dir := globalAuth(t, tc.n, int64(20+tc.n))
		value := []byte("v")
		procs, nodes := fdbaProcs(t, cfg, signers, func(int) sig.Directory { return dir }, value)
		counters := runBA(t, cfg, procs, ba.FDBAEngineRounds(tc.t))

		if got, want := counters.Messages(), tc.n-1; got != want {
			t.Errorf("n=%d t=%d: messages = %d, want %d (failure-free must equal FD)", tc.n, tc.t, got, want)
		}
		for _, n := range nodes {
			if n.InFallback() {
				t.Errorf("n=%d t=%d: %v entered fallback in a failure-free run", tc.n, tc.t, n.Decision().Node)
			}
			if d := n.Decision(); !bytes.Equal(d.Value, value) {
				t.Errorf("n=%d t=%d: %v decided %q", tc.n, tc.t, d.Node, d.Value)
			}
		}
	}
}

// fdbaAgreement asserts all correct nodes decided the same value and
// returns it.
func fdbaAgreement(t *testing.T, nodes []*ba.FDBANode, faulty model.NodeSet) []byte {
	t.Helper()
	var first []byte
	var have bool
	for _, n := range nodes {
		if n == nil || faulty.Contains(n.Decision().Node) {
			continue
		}
		d := n.Decision()
		if !have {
			first, have = d.Value, true
			continue
		}
		if !bytes.Equal(d.Value, first) {
			t.Errorf("BA agreement violated: %v decided %q, earlier nodes %q", d.Node, d.Value, first)
		}
	}
	return first
}

func TestFDBASilentRelayFallsBackAndAgrees(t *testing.T) {
	// A silent relay kills the chain. FD alone would leave some nodes
	// decided (the early relays) and some discovering; the BA extension
	// must drive EVERYONE to one value.
	cfg := model.Config{N: 6, T: 2}
	signers, dir := globalAuth(t, 6, 31)
	procs, nodes := fdbaProcs(t, cfg, signers, func(int) sig.Directory { return dir }, []byte("v"))
	faulty := model.NewNodeSet(2)
	procs[2] = sim.Silent{}
	nodes[2] = nil
	runBA(t, cfg, procs, ba.FDBAEngineRounds(cfg.T))

	got := fdbaAgreement(t, nodes, faulty)
	// P_1 accepted and presented a 2-strength chain for "v"; conflicting
	// evidence cannot exist, so the agreed value is "v".
	if !bytes.Equal(got, []byte("v")) {
		t.Errorf("agreed value = %q, want %q", got, "v")
	}
	// At least the starved successors entered fallback.
	inFallback := 0
	for _, n := range nodes {
		if n != nil && n.InFallback() {
			inFallback++
		}
	}
	if inFallback == 0 {
		t.Error("nobody entered fallback despite a dead chain")
	}
}

func TestFDBASilentSenderAgreesOnDefault(t *testing.T) {
	// A completely silent sender: nobody ever holds evidence; everyone
	// discovers, falls back, and agrees on the default.
	cfg := model.Config{N: 5, T: 1}
	signers, dir := globalAuth(t, 5, 37)
	procs, nodes := fdbaProcs(t, cfg, signers, func(int) sig.Directory { return dir }, []byte("ignored"))
	faulty := model.NewNodeSet(0)
	procs[0] = sim.Silent{}
	nodes[0] = nil
	runBA(t, cfg, procs, ba.FDBAEngineRounds(cfg.T))

	got := fdbaAgreement(t, nodes, faulty)
	if !bytes.Equal(got, ba.DefaultValue) {
		t.Errorf("agreed value = %q, want default", got)
	}
}

func TestFDBATamperingRelayAgreesOnSenderValue(t *testing.T) {
	// A relay that corrupts the chain: successor discovers, fallback
	// spreads P_1's intact evidence, everyone lands on the true value.
	cfg := model.Config{N: 6, T: 2}
	signers, dir := globalAuth(t, 6, 41)
	value := []byte("v")
	procs, nodes := fdbaProcs(t, cfg, signers, func(int) sig.Directory { return dir }, value)
	faulty := model.NewNodeSet(2)
	inner := nodes[2]
	procs[2] = adversary.Wrap(inner, adversary.TamperPayload(model.KindChainValue, adversary.FlipByte(12)))
	nodes[2] = nil
	runBA(t, cfg, procs, ba.FDBAEngineRounds(cfg.T))

	got := fdbaAgreement(t, nodes, faulty)
	if !bytes.Equal(got, value) {
		t.Errorf("agreed value = %q, want %q", got, value)
	}
}

func TestFDBAFabricatedFaultTriggersConsistentFallback(t *testing.T) {
	// A faulty node announces FAULT (to a subset!) even though the FD run
	// was clean. The echo round pulls every correct node into the
	// fallback, and strongest-evidence lands them all on the FD value —
	// the mixed-decision hazard the construction must survive.
	cfg := model.Config{N: 6, T: 2}
	signers, dir := globalAuth(t, 6, 43)
	value := []byte("v")
	procs, nodes := fdbaProcs(t, cfg, signers, func(int) sig.Directory { return dir }, value)
	faulty := model.NewNodeSet(5)
	// Node 5 behaves correctly in the FD phase (it is a tail node:
	// receives, verifies) but then fabricates a FAULT to nodes 1 and 3.
	inner := nodes[5]
	faultChain := func() []byte {
		c, err := sig.NewChain([]byte("fdba/fault/v1"), signers[5])
		if err != nil {
			t.Fatalf("NewChain: %v", err)
		}
		return c.Marshal()
	}()
	procs[5] = adversary.Wrap(inner, adversary.InjectAt(fd.ChainEngineRounds(cfg.T)+1,
		model.Message{To: 1, Kind: model.KindFault, Payload: faultChain},
		model.Message{To: 3, Kind: model.KindFault, Payload: faultChain},
	))
	nodes[5] = nil
	runBA(t, cfg, procs, ba.FDBAEngineRounds(cfg.T))

	got := fdbaAgreement(t, nodes, faulty)
	if !bytes.Equal(got, value) {
		t.Errorf("agreed value = %q, want %q (fabricated fault must not change the value)", got, value)
	}
}

func TestFDBALocalAuthCleanRun(t *testing.T) {
	// Under local authentication with everyone correct, the extension
	// behaves exactly as under global authentication.
	cfg := model.Config{N: 5, T: 1}
	signers, dirs := localAuth(t, cfg, 47, nil)
	value := []byte("v")
	procs, nodes := fdbaProcs(t, cfg, signers, func(i int) sig.Directory { return dirs[i] }, value)
	counters := runBA(t, cfg, procs, ba.FDBAEngineRounds(cfg.T))

	if got, want := counters.Messages(), cfg.N-1; got != want {
		t.Errorf("messages = %d, want %d", got, want)
	}
	fdbaAgreement(t, nodes, model.NewNodeSet())
}

func TestFDBAEquivocatingSenderDefaultsOrAgrees(t *testing.T) {
	// Sender signs two values; P_1 discovers the duplicate and announces.
	// Fallback evidence: P_1 holds NO accepted chain (it discovered before
	// accepting), the faulty sender may present either 1-chain. All
	// correct nodes see the same evidence set and tie-break identically.
	cfg := model.Config{N: 6, T: 2}
	signers, dir := globalAuth(t, 6, 53)
	procs, nodes := fdbaProcs(t, cfg, signers, func(int) sig.Directory { return dir }, []byte("ignored"))
	faulty := model.NewNodeSet(0)
	// The correct chain sender of "a" — no fallback part — plus a chain
	// of "b" to P_1.
	sender, err := fd.NewChainNode(cfg, 0, signers[0], dir, fd.WithValue([]byte("a")))
	if err != nil {
		t.Fatalf("NewChainNode: %v", err)
	}
	second, err := sig.NewChain([]byte("b"), signers[0])
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	procs[0] = adversary.Wrap(sender, adversary.InjectAt(1, model.Message{To: 1, Kind: model.KindChainValue, Payload: second.Marshal()}))
	nodes[0] = nil
	runBA(t, cfg, procs, ba.FDBAEngineRounds(cfg.T))

	fdbaAgreement(t, nodes, faulty)
}

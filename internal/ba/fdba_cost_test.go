package ba_test

import (
	"testing"

	"repro/internal/ba"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Cost-shape tests for the FD→BA extension: the whole point of the
// construction is WHERE the messages go.

func TestFDBAWorstCaseCostBounded(t *testing.T) {
	// With a failure, the fallback flood costs O(n²) per flood round —
	// the price is only paid when something actually went wrong. Verify
	// the worst-case message count stays within the analytic bound:
	//   FD phase ≤ n−1
	//   FAULT + echo ≤ 2·d·(n−1) for d discoverers/echoers ≤ 2n(n−1)
	//   flood ≤ (t+1)·n·(n−1) (each node relays each new evidence once)
	cfg := model.Config{N: 6, T: 2}
	signers, dir := globalAuth(t, 6, 71)
	procs, nodes := fdbaProcs(t, cfg, signers, func(int) sig.Directory { return dir }, []byte("v"))
	faulty := model.NewNodeSet(1)
	procs[1] = sim.Silent{}
	nodes[1] = nil
	counters := runBA(t, cfg, procs, ba.FDBAEngineRounds(cfg.T))

	n, tol := cfg.N, cfg.T
	bound := (n - 1) + 2*n*(n-1) + (tol+1)*n*(n-1)
	if got := counters.Messages(); got > bound {
		t.Errorf("worst-case messages = %d exceeds bound %d", got, bound)
	}
	// And it must be strictly more than the failure-free cost — the
	// fallback is not free.
	if got := counters.Messages(); got <= n-1 {
		t.Errorf("faulty run cost %d, expected fallback traffic beyond %d", got, n-1)
	}
	fdbaAgreement(t, nodes, faulty)
}

func TestFDBAFaultRoundTrafficOnlyOnDiscovery(t *testing.T) {
	// Failure-free: zero KindFault / KindFaultEcho / KindFallback traffic.
	cfg := model.Config{N: 5, T: 1}
	signers, dir := globalAuth(t, 5, 73)
	procs, _ := fdbaProcs(t, cfg, signers, func(int) sig.Directory { return dir }, []byte("v"))
	counters := runBA(t, cfg, procs, ba.FDBAEngineRounds(cfg.T))
	byKind := counters.Snapshot().ByKind
	for _, kind := range []model.MessageKind{model.KindFault, model.KindFaultEcho, model.KindFallback} {
		if got := byKind[kind]; got != 0 {
			t.Errorf("failure-free run carried %d %v messages", got, kind)
		}
	}
}

func TestFDBADecisionsStableAcrossSeeds(t *testing.T) {
	// Same fault pattern, different keys: the decided value must be the
	// same (it depends on the protocol, not the key material).
	for seed := int64(0); seed < 5; seed++ {
		cfg := model.Config{N: 6, T: 2}
		signers, dir := globalAuth(t, 6, 100+seed)
		procs, nodes := fdbaProcs(t, cfg, signers, func(int) sig.Directory { return dir }, []byte("v"))
		faulty := model.NewNodeSet(2)
		procs[2] = sim.Silent{}
		nodes[2] = nil
		runBA(t, cfg, procs, ba.FDBAEngineRounds(cfg.T))
		got := fdbaAgreement(t, nodes, faulty)
		if string(got) != "v" {
			t.Errorf("seed %d: agreed %q, want %q", seed, got, "v")
		}
	}
}

func TestFDBARelayChainRoles(t *testing.T) {
	// Spot-check evidence strengths: after a clean run every node's FD
	// evidence is the consecutive prefix chain its role dictates.
	cfg := model.Config{N: 6, T: 2}
	signers, dir := globalAuth(t, 6, 79)

	procs := make([]sim.Process, cfg.N)
	nodes := make([]*fd.ChainNode, cfg.N)
	for i := 0; i < cfg.N; i++ {
		var opts []fd.ChainOption
		if model.NodeID(i) == fd.Sender {
			opts = append(opts, fd.WithValue([]byte("v")))
		}
		n, err := fd.NewChainNode(cfg, model.NodeID(i), signers[i], dir, opts...)
		if err != nil {
			t.Fatalf("NewChainNode: %v", err)
		}
		nodes[i] = n
		procs[i] = n
	}
	runBA(t, cfg, procs, fd.ChainEngineRounds(cfg.T))

	wantLen := map[model.NodeID]int{
		0: 1, // sender: {v}_{S_0}
		1: 2, // relay: + own signature
		2: 3, // disseminator: + own signature
		3: 3, // tail: the received full chain
		4: 3,
		5: 3,
	}
	for id, want := range wantLen {
		if ev := nodes[id].EvidenceChain(); ev.Len() != want {
			t.Errorf("%v evidence length = %d, want %d", id, ev.Len(), want)
		}
	}
}

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

// Experiment E11 — the paper's §6 open problem, made concrete.
//
// Setup: the sender is faulty and ran the MIXED-PREDICATE attack during
// key distribution (predicate A accepted by P_1, predicate B by everyone
// else): a G3 violation that local authentication provably cannot prevent
// and key distribution cannot detect.
//
// Payoff of the comparison:
//   - SM(t) Byzantine Agreement under local authentication BREAKS: P_1
//     extracts {v}, the others extract {u}, nobody notices, agreement is
//     violated silently. This is why the paper only claims Failure
//     Discovery — not BA — for local authentication, and why §6 calls BA
//     under local authentication an open question.
//   - The chain FD protocol under the SAME attack DISCOVERS the failure
//     (Theorem 4): the first node whose directory disagrees with the
//     chain's signature rejects it and discovers.

// e11Fixture runs key distribution with a mixed-predicate faulty sender.
func e11Fixture(t *testing.T, n, tol int, seed int64) (signers []sig.Signer, dirs []sig.Directory, mixed *adversary.KeyFaces) {
	t.Helper()
	cfg := model.Config{N: n, T: tol}
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	groupA := model.NewNodeSet(1) // P_1 gets predicate A, the rest B
	keyRand := sim.SeededReader(seed)
	keyOne, err := scheme.Generate(keyRand)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	keyTwo, err := scheme.Generate(keyRand)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	mixed = adversary.NewKeyFaces(groupA, keyOne, keyTwo)
	signers, dirs = localAuth(t, cfg, seed, map[model.NodeID]func(sim.Process) sim.Process{0: mixed.Wrap})
	return signers, dirs, mixed
}

// e11SenderRun drives one agreement run where the faulty sender signs v
// with key A toward P_1 and u with key B toward the others, using the
// given message kind.
func e11Sender(mixed *adversary.KeyFaces, cfg model.Config, kind model.MessageKind, v, u []byte, direct bool) sim.Process {
	return sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round != 1 {
			return nil
		}
		chainFor := func(to model.NodeID, value []byte) []byte {
			c, err := sig.NewChain(value, mixed.SignerFor(to))
			if err != nil {
				panic(err)
			}
			return c.Marshal()
		}
		if !direct {
			// Chain FD: the sender only talks to P_1.
			return []model.Message{{To: 1, Kind: kind, Payload: chainFor(1, v)}}
		}
		var out []model.Message
		for _, to := range cfg.Nodes() {
			if to == 0 {
				continue
			}
			value := u
			if to == 1 {
				value = v
			}
			out = append(out, model.Message{To: to, Kind: kind, Payload: chainFor(to, value)})
		}
		return out
	})
}

func TestE11SMUnderLocalAuthSplitsSilently(t *testing.T) {
	cfg := model.Config{N: 4, T: 1}
	signers, dirs, mixed := e11Fixture(t, 4, 1, 61)

	procs := make([]sim.Process, cfg.N)
	nodes := make([]*ba.SMNode, cfg.N)
	for i := 1; i < cfg.N; i++ {
		n, err := ba.NewSMNode(cfg, model.NodeID(i), signers[i], dirs[i])
		if err != nil {
			t.Fatalf("NewSMNode: %v", err)
		}
		nodes[i] = n
		procs[i] = n
	}
	procs[0] = e11Sender(mixed, cfg, model.KindSigned, []byte("v"), []byte("u"), true)
	runBA(t, cfg, procs, ba.SMEngineRounds(cfg.T))

	d1 := nodes[1].Decision()
	d2 := nodes[2].Decision()
	d3 := nodes[3].Decision()
	// The split: P_1 on v, P_2/P_3 on u — BA agreement violated with no
	// node any the wiser. (If this ever starts agreeing, the G3 gap has
	// been closed and the paper's open problem solved — worth a look!)
	if bytes.Equal(d1.Value, d2.Value) {
		t.Fatalf("expected split, got agreement on %q — E11 attack no longer demonstrates the gap", d1.Value)
	}
	if !bytes.Equal(d1.Value, []byte("v")) {
		t.Errorf("P1 decided %q, want %q", d1.Value, "v")
	}
	if !bytes.Equal(d2.Value, []byte("u")) || !bytes.Equal(d3.Value, []byte("u")) {
		t.Errorf("P2/P3 decided %q/%q, want %q", d2.Value, d3.Value, "u")
	}
}

func TestE11ChainFDUnderLocalAuthDiscovers(t *testing.T) {
	// Same key-distribution attack, same equivocation pattern — but the
	// chain FD protocol: P_1 (disseminator at t=1) accepts and forwards;
	// P_2 and P_3 verify the extended chain, find the innermost signature
	// unverifiable under THEIR predicate for P_0, and DISCOVER (Theorem 4).
	cfg := model.Config{N: 4, T: 1}
	signers, dirs, mixed := e11Fixture(t, 4, 1, 67)

	procs := make([]sim.Process, cfg.N)
	nodes := make([]*fd.ChainNode, cfg.N)
	for i := 1; i < cfg.N; i++ {
		n, err := fd.NewChainNode(cfg, model.NodeID(i), signers[i], dirs[i])
		if err != nil {
			t.Fatalf("NewChainNode: %v", err)
		}
		nodes[i] = n
		procs[i] = n
	}
	procs[0] = e11Sender(mixed, cfg, model.KindChainValue, []byte("v"), []byte("u"), false)
	runBA(t, cfg, procs, fd.ChainEngineRounds(cfg.T))

	// P_1 accepted v (its predicate matches).
	if o := nodes[1].Outcome(); !o.Decided || !bytes.Equal(o.Value, []byte("v")) {
		t.Errorf("P1 outcome = %v, want decided v", o)
	}
	// P_2 and P_3 discovered — the dichotomy of Theorem 4.
	for _, id := range []int{2, 3} {
		o := nodes[id].Outcome()
		if o.Discovery == nil {
			t.Errorf("P%d did not discover the mixed-predicate chain: %v", id, o)
			continue
		}
		if o.Discovery.Reason != model.ReasonBadSignature && o.Discovery.Reason != model.ReasonBadChain {
			t.Errorf("P%d reason = %v, want bad-signature/bad-chain", id, o.Discovery.Reason)
		}
	}
	// F2 is intact: a correct node discovered, so the weak-agreement
	// clause is not violated even though P_1 decided.
}

func TestE11FDBAUnderLocalAuthCanSplit(t *testing.T) {
	// The full BA extension under local authentication with the mixed
	// predicate sender. The FD phase discovers at P_2/P_3, the fallback
	// floods evidence — but evidence VERIFICATION diverges between the
	// predicate groups, so the final decisions may split (P_1 keeps v,
	// others default). We assert only what is guaranteed: the run
	// completes, and IF decisions split, the split follows the predicate
	// groups — documenting, not fixing, the open problem.
	cfg := model.Config{N: 4, T: 1}
	signers, dirs, mixed := e11Fixture(t, 4, 1, 71)

	procs := make([]sim.Process, cfg.N)
	nodes := make([]*ba.FDBANode, cfg.N)
	for i := 1; i < cfg.N; i++ {
		n, err := ba.NewFDBANode(cfg, model.NodeID(i), signers[i], dirs[i], nil)
		if err != nil {
			t.Fatalf("NewFDBANode: %v", err)
		}
		nodes[i] = n
		procs[i] = n
	}
	procs[0] = e11Sender(mixed, cfg, model.KindChainValue, []byte("v"), []byte("u"), false)
	runBA(t, cfg, procs, ba.FDBAEngineRounds(cfg.T))

	d1 := nodes[1].Decision()
	d2 := nodes[2].Decision()
	d3 := nodes[3].Decision()
	// Within the same predicate group decisions must agree.
	if !bytes.Equal(d2.Value, d3.Value) {
		t.Errorf("same-group nodes split: P2=%q P3=%q", d2.Value, d3.Value)
	}
	t.Logf("E11 FDBA decisions: P1=%q P2=%q P3=%q (split across groups = the open problem)",
		d1.Value, d2.Value, d3.Value)
}

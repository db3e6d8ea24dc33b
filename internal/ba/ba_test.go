package ba_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/ba"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// globalAuth builds n signers with a single shared directory: the
// global-authentication regime the classical algorithms assume.
func globalAuth(t testing.TB, n int, seed int64) ([]sig.Signer, sig.MapDirectory) {
	t.Helper()
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	dir := make(sig.MapDirectory, n)
	signers := make([]sig.Signer, n)
	for i := 0; i < n; i++ {
		s, err := scheme.Generate(sim.SeededReader(sim.NodeSeed(seed, i)))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		signers[i] = s
		dir[model.NodeID(i)] = s.Predicate()
	}
	return signers, dir
}

// localAuth runs key distribution, a node under wrap faulty in it, and
// returns per-node signers and directories, nil at the faulty nodes.
func localAuth(t testing.TB, cfg model.Config, seed int64, wrap map[model.NodeID]func(sim.Process) sim.Process) ([]sig.Signer, []sig.Directory) {
	t.Helper()
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	procs := make([]sim.Process, cfg.N)
	nodes := make([]*keydist.Node, cfg.N)
	memo := new(sig.VerifyMemo)
	for i := 0; i < cfg.N; i++ {
		id := model.NodeID(i)
		n, err := keydist.NewNode(cfg, id, scheme, sim.SeededReader(sim.NodeSeed(seed, i)), memo)
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = n
		procs[i] = n
		if w, ok := wrap[id]; ok {
			procs[i], nodes[i] = w(n), nil
		}
	}
	eng, err := sim.New(cfg, procs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	eng.Run(keydist.RoundsTotal)
	signers := make([]sig.Signer, cfg.N)
	dirs := make([]sig.Directory, cfg.N)
	for i, n := range nodes {
		if n == nil {
			continue
		}
		signers[i] = n.Signer()
		dirs[i] = n.Directory()
	}
	return signers, dirs
}

func runBA(t testing.TB, cfg model.Config, procs []sim.Process, rounds int) *metrics.Counters {
	t.Helper()
	counters := metrics.NewCounters()
	eng, err := sim.New(cfg, procs, sim.WithCounters(counters))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	eng.Run(rounds)
	return counters
}

// --- OM(t) / EIG ---

func TestEIGFailureFree(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}} {
		cfg := model.Config{N: tc.n, T: tc.t}
		value := []byte("attack at dawn")
		entries := new(atomic.Int64)
		procs := make([]sim.Process, cfg.N)
		nodes := make([]*ba.EIGNode, cfg.N)
		for i := 0; i < cfg.N; i++ {
			var opts []ba.EIGOption
			if model.NodeID(i) == ba.Sender {
				opts = append(opts, ba.WithEIGValue(value))
			}
			opts = append(opts, ba.WithEntryCounter(entries))
			n, err := ba.NewEIGNode(cfg, model.NodeID(i), opts...)
			if err != nil {
				t.Fatalf("NewEIGNode: %v", err)
			}
			nodes[i] = n
			procs[i] = n
		}
		runBA(t, cfg, procs, ba.EIGEngineRounds(tc.t))
		for _, n := range nodes {
			d := n.Decision()
			if !bytes.Equal(d.Value, value) {
				t.Errorf("n=%d t=%d: %v decided %q, want %q", tc.n, tc.t, d.Node, d.Value, value)
			}
		}
		// The classical exponential entry count is matched exactly.
		if got, want := entries.Load(), int64(ba.EIGEntries(tc.n, tc.t)); got != want {
			t.Errorf("n=%d t=%d: entries = %d, want %d", tc.n, tc.t, got, want)
		}
	}
}

func TestEIGFaultyRelayAgreement(t *testing.T) {
	// One lying relay (t=1, n=4): correct nodes still agree on the
	// sender's value — the OM(1) guarantee.
	cfg := model.Config{N: 4, T: 1}
	value := []byte("v")
	procs := make([]sim.Process, cfg.N)
	nodes := make([]*ba.EIGNode, cfg.N)
	for i := 0; i < cfg.N; i++ {
		var opts []ba.EIGOption
		if model.NodeID(i) == ba.Sender {
			opts = append(opts, ba.WithEIGValue(value))
		}
		n, err := ba.NewEIGNode(cfg, model.NodeID(i), opts...)
		if err != nil {
			t.Fatalf("NewEIGNode: %v", err)
		}
		nodes[i] = n
		procs[i] = n
	}
	// Node 2 relays garbage values for every path.
	procs[2] = sim.ProcessFunc(func(round int, received []model.Message) []model.Message {
		if round != 2 {
			return nil
		}
		var out []model.Message
		for _, to := range cfg.Nodes() {
			if to == 2 {
				continue
			}
			// Fabricate a lie about the sender's root path.
			out = append(out, model.Message{To: to, Kind: model.KindOral,
				Payload: lieEntry(t, []model.NodeID{0, 2}, []byte("lie"))})
		}
		return out
	})
	nodes[2] = nil
	runBA(t, cfg, procs, ba.EIGEngineRounds(cfg.T))

	for _, n := range nodes {
		if n == nil {
			continue
		}
		d := n.Decision()
		if !bytes.Equal(d.Value, value) {
			t.Errorf("%v decided %q, want %q (OM(1) validity)", d.Node, d.Value, value)
		}
	}
}

func TestEIGFaultySenderAgreement(t *testing.T) {
	// A two-faced sender (t=1, n=4): correct nodes must AGREE (on
	// whatever value), the heart of the Byzantine generals result.
	cfg := model.Config{N: 4, T: 1}
	procs := make([]sim.Process, cfg.N)
	nodes := make([]*ba.EIGNode, cfg.N)
	for i := 1; i < cfg.N; i++ {
		n, err := ba.NewEIGNode(cfg, model.NodeID(i))
		if err != nil {
			t.Fatalf("NewEIGNode: %v", err)
		}
		nodes[i] = n
		procs[i] = n
	}
	procs[0] = sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round != 1 {
			return nil
		}
		return []model.Message{
			{To: 1, Kind: model.KindOral, Payload: lieEntry(t, []model.NodeID{0}, []byte("a"))},
			{To: 2, Kind: model.KindOral, Payload: lieEntry(t, []model.NodeID{0}, []byte("b"))},
			{To: 3, Kind: model.KindOral, Payload: lieEntry(t, []model.NodeID{0}, []byte("a"))},
		}
	})
	runBA(t, cfg, procs, ba.EIGEngineRounds(cfg.T))

	var first []byte
	for _, n := range nodes {
		if n == nil {
			continue
		}
		d := n.Decision()
		if first == nil {
			first = d.Value
			continue
		}
		if !bytes.Equal(d.Value, first) {
			t.Errorf("agreement violated: %q vs %q", first, d.Value)
		}
	}
}

func TestEIGRequiresN3T(t *testing.T) {
	if _, err := ba.NewEIGNode(model.Config{N: 3, T: 1}, 0, ba.WithEIGValue([]byte("v"))); err == nil {
		t.Error("n=3,t=1 accepted; OM requires n > 3t")
	}
}

func TestEIGEntriesFormula(t *testing.T) {
	// Spot-check the falling-factorial formula.
	if got := ba.EIGEntries(4, 1); got != 3+3*3 {
		t.Errorf("EIGEntries(4,1) = %d, want 12", got)
	}
	if got := ba.EIGEntries(7, 2); got != 6+6*6+6*5*6 {
		t.Errorf("EIGEntries(7,2) = %d, want %d", got, 6+36+180)
	}
}

// lieEntry builds a single-entry oral payload for the given path/value.
func lieEntry(t testing.TB, path []model.NodeID, value []byte) []byte {
	t.Helper()
	return ba.MarshalOralEntries([]ba.OralEntry{{Path: path, Value: value}})
}

// --- SM(t) ---

func smProcs(t *testing.T, cfg model.Config, signers []sig.Signer, dirFor func(int) sig.Directory, value []byte) ([]sim.Process, []*ba.SMNode) {
	t.Helper()
	procs := make([]sim.Process, cfg.N)
	nodes := make([]*ba.SMNode, cfg.N)
	for i := 0; i < cfg.N; i++ {
		var opts []ba.SMOption
		if model.NodeID(i) == ba.Sender {
			opts = append(opts, ba.WithSMValue(value))
		}
		n, err := ba.NewSMNode(cfg, model.NodeID(i), signers[i], dirFor(i), opts...)
		if err != nil {
			t.Fatalf("NewSMNode: %v", err)
		}
		nodes[i] = n
		procs[i] = n
	}
	return procs, nodes
}

func TestSMFailureFree(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{4, 1}, {5, 3}, {8, 2}} {
		cfg := model.Config{N: tc.n, T: tc.t}
		signers, dir := globalAuth(t, tc.n, int64(tc.n))
		value := []byte("signed value")
		procs, nodes := smProcs(t, cfg, signers, func(int) sig.Directory { return dir }, value)
		counters := runBA(t, cfg, procs, ba.SMEngineRounds(tc.t))

		for _, n := range nodes {
			if d := n.Decision(); !bytes.Equal(d.Value, value) {
				t.Errorf("n=%d t=%d: %v decided %q", tc.n, tc.t, d.Node, d.Value)
			}
		}
		if got, want := counters.Messages(), (tc.n-1)+(tc.n-1)*(tc.n-2); got != want {
			t.Errorf("n=%d t=%d: messages = %d, want %d (O(n²) failure-free)", tc.n, tc.t, got, want)
		}
	}
}

func TestSMEquivocatingSenderGlobalAuth(t *testing.T) {
	// A sender signing two values: with t=2 ≥ faults, all correct nodes
	// end with V={a,b} and decide the default — agreement preserved.
	cfg := model.Config{N: 5, T: 2}
	signers, dir := globalAuth(t, 5, 9)
	procs, nodes := smProcs(t, cfg, signers, func(int) sig.Directory { return dir }, []byte("ignored"))
	procs[0] = equivocatingSMSender(t, cfg, signers[0], []byte("a"), []byte("b"))
	nodes[0] = nil
	runBA(t, cfg, procs, ba.SMEngineRounds(cfg.T))

	for _, n := range nodes {
		if n == nil {
			continue
		}
		d := n.Decision()
		if !bytes.Equal(d.Value, ba.DefaultValue) {
			t.Errorf("%v decided %q, want default", d.Node, d.Value)
		}
		vs := n.ValueSet()
		if len(vs) != 2 {
			t.Errorf("%v extracted %v, want both values", d.Node, vs)
		}
	}
}

// equivocatingSMSender splits v1 to half, v2 to the other half.
func equivocatingSMSender(t testing.TB, cfg model.Config, signer sig.Signer, v1, v2 []byte) sim.Process {
	t.Helper()
	return sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round != 1 {
			return nil
		}
		c1, err := sig.NewChain(v1, signer)
		if err != nil {
			t.Fatalf("NewChain: %v", err)
		}
		c2, err := sig.NewChain(v2, signer)
		if err != nil {
			t.Fatalf("NewChain: %v", err)
		}
		var out []model.Message
		for _, to := range cfg.Nodes() {
			if to == 0 {
				continue
			}
			p := c1.Marshal()
			if int(to) > cfg.N/2 {
				p = c2.Marshal()
			}
			out = append(out, model.Message{To: to, Kind: model.KindSigned, Payload: p})
		}
		return out
	})
}

func TestSMLocalAuthCleanRun(t *testing.T) {
	// With everyone correct, local authentication behaves exactly like
	// global authentication for SM(t) — G2 at work.
	cfg := model.Config{N: 5, T: 1}
	signers, dirs := localAuth(t, cfg, 11, nil)
	value := []byte("v")
	procs, nodes := smProcs(t, cfg, signers, func(i int) sig.Directory { return dirs[i] }, value)
	runBA(t, cfg, procs, ba.SMEngineRounds(cfg.T))
	for _, n := range nodes {
		if d := n.Decision(); !bytes.Equal(d.Value, value) {
			t.Errorf("%v decided %q", d.Node, d.Value)
		}
	}
}

package core_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/protocol"
	"repro/internal/sig"
	"repro/internal/sim"
)

func newCluster(t *testing.T, n, tol int, seed int64) *core.Cluster {
	t.Helper()
	c, err := core.New(model.Config{N: n, T: tol}, core.WithSeed(seed))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return c
}

func TestClusterLifecycle(t *testing.T) {
	c := newCluster(t, 8, 2, 1)
	if c.Established() {
		t.Fatal("cluster claims establishment before key distribution")
	}
	rep, err := c.EstablishAuthentication()
	if err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	if got, want := rep.Snapshot.Messages, keydist.ExpectedMessages(8); got != want {
		t.Errorf("keydist messages = %d, want %d", got, want)
	}
	if len(rep.Discoveries) != 0 {
		t.Errorf("failure-free keydist produced discoveries: %v", rep.Discoveries)
	}
	if !c.Established() {
		t.Fatal("cluster not established after key distribution")
	}

	value := []byte("ledger entry 1")
	fdRep, err := c.RunFailureDiscovery(value)
	if err != nil {
		t.Fatalf("RunFailureDiscovery: %v", err)
	}
	if got, want := fdRep.Snapshot.Messages, 7; got != want {
		t.Errorf("fd messages = %d, want %d", got, want)
	}
	agreed, ok := model.AgreedValue(fdRep.Outcomes)
	if !ok || !bytes.Equal(agreed, value) {
		t.Errorf("AgreedValue = %q/%v, want %q", agreed, ok, value)
	}
	if fdRep.FailureDiscovered() {
		t.Error("failure discovered in failure-free run")
	}
}

// runDriver runs the built-in driver name once over c, its instance at
// c's (n, t) with P_0 sending value.
func runDriver(t *testing.T, c *core.Cluster, name string, value []byte) (protocol.Outcome, error) {
	t.Helper()
	d, err := protocol.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	return d.Run(protocol.Instance{N: cfg.N, T: cfg.T, Value: value}, c)
}

func TestClusterRequiresEstablishmentForAuthProtocols(t *testing.T) {
	c := newCluster(t, 4, 1, 2)
	if _, err := c.RunFailureDiscovery([]byte("v")); err == nil {
		t.Error("chain run allowed before establishment")
	}
	// The non-authenticated baseline needs no keys.
	if _, err := runDriver(t, c, protocol.NameNonAuth, []byte("v")); err != nil {
		t.Errorf("non-auth run refused: %v", err)
	}
}

func TestClusterLedgerAccumulates(t *testing.T) {
	c := newCluster(t, 8, 2, 3)
	if _, err := c.EstablishAuthentication(); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	const k = 5
	for i := 0; i < k; i++ {
		if _, err := c.RunFailureDiscovery([]byte{byte(i)}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	l := c.Ledger()
	if got := l.FDRuns(); got != k {
		t.Errorf("FDRuns = %d, want %d", got, k)
	}
	wantTotal := keydist.ExpectedMessages(8) + k*7
	if got := l.TotalMessages(); got != wantTotal {
		t.Errorf("TotalMessages = %d, want %d", got, wantTotal)
	}
	if got := l.KeyDistMessages(); got != keydist.ExpectedMessages(8) {
		t.Errorf("KeyDistMessages = %d", got)
	}
	if got := len(l.Reports()); got != k+1 {
		t.Errorf("Reports = %d, want %d", got, k+1)
	}
}

func TestClusterNonAuthMatchesFormula(t *testing.T) {
	c := newCluster(t, 16, 5, 4)
	out, err := runDriver(t, c, protocol.NameNonAuth, []byte("v"))
	if err != nil {
		t.Fatalf("nonauth run: %v", err)
	}
	if got, want := out.Snapshot.Messages, 6*15; got != want { // (t+1)(n−1)
		t.Errorf("messages = %d, want %d", got, want)
	}
	if !out.Agreed {
		t.Error("no agreement in failure-free baseline run")
	}
}

func TestClusterSmallRange(t *testing.T) {
	c := newCluster(t, 8, 2, 5)
	if _, err := c.EstablishAuthentication(); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	out, err := runDriver(t, c, protocol.NameSmallRange, []byte{0})
	if err != nil {
		t.Fatalf("smallrange run: %v", err)
	}
	if out.Snapshot.Messages != 0 {
		t.Errorf("default-bit run cost %d messages, want 0", out.Snapshot.Messages)
	}
	out, err = runDriver(t, c, protocol.NameSmallRange, []byte{1})
	if err != nil {
		t.Fatalf("smallrange run: %v", err)
	}
	if out.Snapshot.Messages != 7 {
		t.Errorf("non-default run cost %d messages, want 7", out.Snapshot.Messages)
	}
	if _, err := runDriver(t, c, protocol.NameSmallRange, []byte("too long")); err == nil {
		t.Error("multi-byte small-range value accepted")
	}
}

func TestClusterFaultInjection(t *testing.T) {
	c := newCluster(t, 6, 2, 6)
	if _, err := c.EstablishAuthentication(); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	rep, err := c.RunFailureDiscovery([]byte("v"), core.WithProcess(1, sim.Silent{}))
	if err != nil {
		t.Fatalf("RunFailureDiscovery: %v", err)
	}
	if !rep.FailureDiscovered() {
		t.Error("silent relay not discovered through the cluster API")
	}
	faulty := model.NewNodeSet(1)
	if err := core.CheckF1(rep.Outcomes, faulty); err != nil {
		t.Errorf("F1: %v", err)
	}
	if err := core.CheckF2(rep.Outcomes, faulty); err != nil {
		t.Errorf("F2: %v", err)
	}
	if err := core.CheckF3(rep.Outcomes, faulty, fd.Sender, []byte("v")); err != nil {
		t.Errorf("F3: %v", err)
	}
}

func TestClusterKeyDistFaultInjection(t *testing.T) {
	c := newCluster(t, 5, 1, 7)
	if _, err := c.EstablishAuthentication(core.WithProcess(4, sim.Silent{})); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	dir, err := c.Directory(0)
	if err != nil {
		t.Fatalf("Directory: %v", err)
	}
	if _, ok := dir.PredicateOf(4); ok {
		t.Error("silent node has an accepted predicate")
	}
	// The replaced node holds no keys: asking for them, or running an
	// authenticated protocol that needs them, is an error naming the node.
	const noKeys = "P4 holds no keys: replaced during key distribution"
	if _, err := c.Signer(4); err == nil || !strings.Contains(err.Error(), noKeys) {
		t.Errorf("Signer(4) error = %v, want %q", err, noKeys)
	}
	if _, err := c.Directory(4); err == nil || !strings.Contains(err.Error(), noKeys) {
		t.Errorf("Directory(4) error = %v, want %q", err, noKeys)
	}
	if _, err := c.RunFailureDiscovery([]byte("v")); err == nil || !strings.Contains(err.Error(), noKeys) {
		t.Errorf("chain run with keyless P4 left honest: error = %v, want %q", err, noKeys)
	}
	// FD must still work if the silent node is overridden in the run too
	// (it has no keys, so it cannot be a correct chain node).
	rep2, err := c.RunFailureDiscovery([]byte("v"), core.WithProcess(4, sim.Silent{}))
	if err != nil {
		t.Fatalf("RunFailureDiscovery: %v", err)
	}
	// Node 4 is a tail node; the rest decide, node 4 (faulty) is absent.
	agreed := 0
	for _, o := range rep2.Outcomes {
		if o.Decided && bytes.Equal(o.Value, []byte("v")) {
			agreed++
		}
	}
	if agreed != 4 {
		t.Errorf("%d correct nodes decided, want 4", agreed)
	}

	// A wrapped key-distribution node is faulty but, unlike a replaced
	// one, keeps its keys: P2 runs the correct protocol but never talks
	// to P4, so P4 cannot accept it, P2 still signs with its own key, and
	// G1/G2 hold over the other four.
	c = newCluster(t, 5, 1, 7)
	mute := func(p sim.Process) sim.Process { return adversary.Wrap(p, adversary.DropTo(model.NewNodeSet(4))) }
	if _, err := c.EstablishAuthentication(core.WithWrappedProcess(2, mute)); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	nodes := c.Nodes()
	own, err := c.Scheme().Generate(core.KeyRand(7, 2)) // P2's key under key seed 7
	if err != nil {
		t.Fatal(err)
	}
	if signer, err := c.Signer(2); err != nil || signer.Predicate().Fingerprint() != own.Predicate().Fingerprint() {
		t.Errorf("wrapped P2 did not keep its own keys: %v", err)
	}
	if _, ok := nodes[4].Directory().PredicateOf(2); ok {
		t.Error("P4 accepted P2, which never sent it a message")
	}
	if _, ok := nodes[0].Directory().PredicateOf(2); !ok {
		t.Error("P0 did not accept P2, which answered its challenge")
	}
	if err := core.CheckG1(nodes, model.NewNodeSet(2)); err != nil {
		t.Error(err)
	}
	if err := core.CheckG2(nodes, model.NewNodeSet(2)); err != nil {
		t.Error(err)
	}
}

func TestClusterWithAdversaryMixedPredicates(t *testing.T) {
	// End-to-end through the public API: mixed-predicate keydist attacker
	// at node 0, then a chain run — tail nodes discover (Theorem 4).
	n, tol := 4, 1
	cfg := model.Config{N: n, T: tol}
	c := newCluster(t, n, tol, 10)
	scheme := c.Scheme()
	keyRand := sim.SeededReader(123)
	keyOne, err := scheme.Generate(keyRand)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	keyTwo, err := scheme.Generate(keyRand)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	faces := adversary.NewKeyFaces(model.NewNodeSet(1), keyOne, keyTwo)
	if _, err := c.EstablishAuthentication(core.WithWrappedProcess(0, faces.Wrap)); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	sender, err := fd.NewChainNode(cfg, 0, faces.SignerFor(1), sig.MapDirectory{}, fd.WithValue([]byte("v")))
	if err != nil {
		t.Fatalf("NewChainNode: %v", err)
	}
	rep, err := c.RunFailureDiscovery(nil, core.WithProcess(0, sender))
	if err != nil {
		t.Fatalf("RunFailureDiscovery: %v", err)
	}
	if !rep.FailureDiscovered() {
		t.Error("mixed-predicate use not discovered via cluster API")
	}
}

// TestRunIsTheFailureDiscoveryRunMadeGeneric drives Cluster.Run with the
// chain protocol's own nodes: same options, same traffic as
// RunFailureDiscovery, the honest processes handed back with nil at
// every faulty slot, and one PhaseFD entry in the ledger.
func TestRunIsTheFailureDiscoveryRunMadeGeneric(t *testing.T) {
	cfg := model.Config{N: 7, T: 2}
	value := []byte("v")
	opts := []core.RunOption{
		core.WithProcess(1, sim.Silent{}),
		core.WithWrappedProcess(3, func(p sim.Process) sim.Process { return adversary.Wrap(p, adversary.DropAll(2)) }),
		core.WithChurn(netcond.ChurnSpec{Node: 5, Crash: 2, Restart: 3}),
	}
	established := func() *core.Cluster {
		c := newCluster(t, cfg.N, cfg.T, 4)
		if _, err := c.EstablishAuthentication(); err != nil {
			t.Fatalf("EstablishAuthentication: %v", err)
		}
		return c
	}
	want, err := established().RunFailureDiscovery(value, opts...)
	if err != nil {
		t.Fatalf("RunFailureDiscovery: %v", err)
	}
	if want.Protocol != "chain" {
		t.Errorf("RunFailureDiscovery's report is labelled %q, want chain", want.Protocol)
	}

	c := established()
	built := 0
	rep, honest, err := c.Run("chain-by-hand", fd.ChainEngineRounds(cfg.T), func(id model.NodeID) (sim.Process, error) {
		built++
		signer, err := c.Signer(id)
		if err != nil {
			return nil, err
		}
		dir, err := c.Directory(id)
		if err != nil {
			return nil, err
		}
		if id == fd.Sender {
			return fd.NewChainNode(cfg, id, signer, dir, fd.WithValue(value))
		}
		return fd.NewChainNode(cfg, id, signer, dir)
	}, opts...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Rounds != want.Rounds || !reflect.DeepEqual(rep.Snapshot, want.Snapshot) {
		t.Errorf("Run = %d rounds, %+v; RunFailureDiscovery = %d rounds, %+v",
			rep.Rounds, rep.Snapshot, want.Rounds, want.Snapshot)
	}
	if rep.Phase != core.PhaseFD || rep.Protocol != "chain-by-hand" || rep.Outcomes != nil {
		t.Errorf("report = %+v, want a bare PhaseFD report labelled chain-by-hand", rep)
	}
	// The overridden node is never built; the churned one is built twice.
	if built != cfg.N {
		t.Errorf("builder ran %d times, want %d", built, cfg.N)
	}
	var outcomes []model.Outcome
	for i, p := range honest {
		faulty := i == 1 || i == 3 || i == 5
		if (p == nil) != faulty {
			t.Errorf("honest[%d] = %v, faulty = %v", i, p, faulty)
		}
		if p != nil {
			outcomes = append(outcomes, p.(fd.Outcomer).Outcome())
		}
	}
	if !reflect.DeepEqual(outcomes, want.Outcomes) {
		t.Errorf("outcomes read off honest = %v, want %v", outcomes, want.Outcomes)
	}
	if got := c.Ledger().FDRuns(); got != 1 {
		t.Errorf("ledger holds %d FD runs, want 1", got)
	}
}

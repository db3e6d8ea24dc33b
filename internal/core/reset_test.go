package core_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/sig"
)

// runTraffic runs one authenticated chain round and returns the protocol
// report, normalized for comparison (snapshot + outcomes carry every
// wire-visible quantity).
func runTraffic(t *testing.T, c *core.Cluster, value []byte) core.Report {
	t.Helper()
	rep, err := c.RunFailureDiscovery(value)
	if err != nil {
		t.Fatalf("RunFailureDiscovery: %v", err)
	}
	return rep
}

// TestClusterResetReusesSetup is the core amortization contract: a
// cluster with key material pinned by WithKeySeed, established once and
// Reset onto a new seed, must produce failure-discovery runs identical
// to a fresh cluster built at that seed with the same key seed — without
// re-running key generation or the handshake.
func TestClusterResetReusesSetup(t *testing.T) {
	for _, scheme := range []string{sig.SchemeToy, sig.SchemeEd25519} {
		t.Run(scheme, func(t *testing.T) {
			cfg := model.Config{N: 6, T: 1}
			const keySeed = 77
			reused, err := core.New(cfg, core.WithSeed(1), core.WithKeySeed(keySeed), core.WithScheme(scheme))
			if err != nil {
				t.Fatalf("core.New: %v", err)
			}
			if _, err := reused.EstablishAuthentication(); err != nil {
				t.Fatalf("EstablishAuthentication: %v", err)
			}
			runTraffic(t, reused, []byte("warm-up"))

			reused.Reset(2)
			if !reused.Established() {
				t.Fatal("Reset dropped establishment; it must only clear the ledger and reseed run entropy")
			}
			if got := reused.Ledger().FDRuns(); got != 0 {
				t.Fatalf("Reset left %d FD runs in the ledger", got)
			}
			gotRep := runTraffic(t, reused, []byte("measured"))

			fresh, err := core.New(cfg, core.WithSeed(2), core.WithKeySeed(keySeed), core.WithScheme(scheme))
			if err != nil {
				t.Fatalf("core.New: %v", err)
			}
			if _, err := fresh.EstablishAuthentication(); err != nil {
				t.Fatalf("EstablishAuthentication: %v", err)
			}
			wantRep := runTraffic(t, fresh, []byte("measured"))

			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Errorf("reset-reused run differs from fresh run:\n got %+v\nwant %+v", gotRep, wantRep)
			}
			// Key material really is shared: directories agree node by node.
			for i := 0; i < cfg.N; i++ {
				dr, _ := reused.Directory(0)
				df, _ := fresh.Directory(0)
				if !dr.AgreesWith(df, model.NodeID(i)) {
					t.Fatalf("node %d predicate differs between reused and fresh cluster", i)
				}
			}
		})
	}
}

// TestLedgerHandleSurvivesReset pins the in-place ledger clear: a
// Ledger handle taken before Reset must observe the runs after it — the
// package doc's "amortization is directly observable via Cluster.Ledger"
// pattern.
func TestLedgerHandleSurvivesReset(t *testing.T) {
	c, err := core.New(model.Config{N: 4, T: 1}, core.WithSeed(1), core.WithKeySeed(1))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if _, err := c.EstablishAuthentication(); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	led := c.Ledger()
	c.Reset(2)
	if led.FDRuns() != 0 || led.KeyDistMessages() != 0 {
		t.Fatal("Reset did not clear the ledger in place")
	}
	runTraffic(t, c, []byte("after reset"))
	if led.FDRuns() != 1 {
		t.Errorf("pre-Reset ledger handle saw %d FD runs, want 1", led.FDRuns())
	}
}

// TestWithKeySeedIndependentOfRunSeed pins the entropy-domain split: two
// clusters differing only in run seed share keys when the key seed
// matches, and differ when it does not.
func TestWithKeySeedIndependentOfRunSeed(t *testing.T) {
	pred := func(runSeed, keySeed int64) string {
		c, err := core.New(model.Config{N: 3, T: 1}, core.WithSeed(runSeed), core.WithKeySeed(keySeed))
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		if _, err := c.EstablishAuthentication(); err != nil {
			t.Fatalf("EstablishAuthentication: %v", err)
		}
		d, err := c.Directory(0)
		if err != nil {
			t.Fatalf("Directory: %v", err)
		}
		p, ok := d.PredicateOf(1)
		if !ok {
			t.Fatal("node 1 predicate missing")
		}
		return p.Fingerprint()
	}
	if pred(1, 42) != pred(2, 42) {
		t.Error("run seed leaked into key material")
	}
	if pred(1, 42) == pred(1, 43) {
		t.Error("key seed does not drive key material")
	}

	// Option order must not matter: WithKeySeed pins the key domain even
	// when WithSeed comes after it.
	reversed, err := core.New(model.Config{N: 3, T: 1}, core.WithKeySeed(42), core.WithSeed(1))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if _, err := reversed.EstablishAuthentication(); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	d, _ := reversed.Directory(0)
	p, _ := d.PredicateOf(1)
	if p.Fingerprint() != pred(1, 42) {
		t.Error("WithSeed after WithKeySeed overrode the pinned key domain")
	}
}

// establishedCluster runs the handshake once under the given seeds and
// returns the cluster holding the nodes it leaves behind.
func establishedCluster(t testing.TB, cfg model.Config, seed, keySeed int64, scheme string) *core.Cluster {
	t.Helper()
	c, err := core.New(cfg, core.WithSeed(seed), core.WithKeySeed(keySeed), core.WithScheme(scheme))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if _, err := c.EstablishAuthentication(); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	return c
}

// TestNewEstablishedSharesSetup is the adoption contract: clusters
// wrapped around one handshake's nodes — several at once, under a fault
// bound other than the one the handshake ran with — each produce the run
// a fresh cluster with the same key seed produces, start with an empty
// ledger of their own, and leave the donor's untouched. Under -race this
// is also the proof that established nodes are safe to share.
func TestNewEstablishedSharesSetup(t *testing.T) {
	for _, scheme := range []string{sig.SchemeToy, sig.SchemeEd25519} {
		t.Run(scheme, func(t *testing.T) {
			const keySeed = 77
			donor := establishedCluster(t, model.Config{N: 6, T: 1}, 1, keySeed, scheme)
			cfg := model.Config{N: 6, T: 2}
			want := runTraffic(t, establishedCluster(t, cfg, 2, keySeed, scheme), []byte("measured"))

			const sharers = 4
			got := make([]core.Report, sharers)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c, err := core.NewEstablished(cfg, donor.Nodes())
					if err != nil {
						t.Errorf("NewEstablished: %v", err)
						return
					}
					if !c.Established() || c.Scheme().Name() != scheme || c.Ledger().TotalMessages() != 0 {
						t.Errorf("adopted cluster: established=%v scheme=%s ledger=%d msgs",
							c.Established(), c.Scheme().Name(), c.Ledger().TotalMessages())
					}
					rep, err := c.RunFailureDiscovery([]byte("measured"))
					if err != nil {
						t.Errorf("RunFailureDiscovery: %v", err)
						return
					}
					got[i] = rep
					if c.Ledger().FDRuns() != 1 {
						t.Errorf("adopted cluster's ledger holds %d FD runs, want its own 1", c.Ledger().FDRuns())
					}
				}(i)
			}
			wg.Wait()
			for i, rep := range got {
				if !reflect.DeepEqual(rep, want) {
					t.Errorf("sharer %d differs from a fresh cluster:\n got %+v\nwant %+v", i, rep, want)
				}
			}
			if runs := donor.Ledger().FDRuns(); runs != 0 {
				t.Errorf("sharers left %d FD runs in the donor's ledger", runs)
			}
		})
	}
}

// TestNewEstablishedRefusesMismatchedMaterial: the wrong number of nodes
// or a missing one is an error, not a panic on the first run.
func TestNewEstablishedRefusesMismatchedMaterial(t *testing.T) {
	nodes := establishedCluster(t, model.Config{N: 4, T: 1}, 1, 1, sig.SchemeToy).Nodes()
	if _, err := core.NewEstablished(model.Config{N: 5, T: 1}, nodes); err == nil {
		t.Error("4 nodes adopted as n=5")
	}
	holed := append([]*keydist.Node(nil), nodes...)
	holed[2] = nil
	if _, err := core.NewEstablished(model.Config{N: 4, T: 1}, holed); err == nil {
		t.Error("a missing node was adopted")
	}
	if _, err := core.NewEstablished(model.Config{N: 4, T: 4}, nodes); err == nil {
		t.Error("an invalid config was adopted")
	}
}

// TestNewEstablishedAllocs pins the per-instance price of sharing setup:
// the cluster itself, ledger included — what Reset's reseeding closure
// cost when clusters were reused instead.
func TestNewEstablishedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := model.Config{N: 8, T: 2}
	nodes := establishedCluster(t, cfg, 1, 1, sig.SchemeToy).Nodes()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := core.NewEstablished(cfg, nodes); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("NewEstablished allocates %.0f times, pin is 1", allocs)
	}
}

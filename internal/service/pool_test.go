package service

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/protocol"
	"repro/internal/sig"
)

func poolCell() cellKey {
	return cellKey{Protocol: campaign.ProtoChain, Scheme: sig.SchemeToy, N: 4, T: 1, KeySeed: 1}
}

// run pushes one instance through a checked-out cache, warming it.
func poolRun(t *testing.T, p *pool, k cellKey, seed int64) (warm bool) {
	t.Helper()
	sc, warm := p.checkout(k)
	inst := campaign.Instance{
		Protocol: k.Protocol, N: k.N, T: k.T, Scheme: k.Scheme,
		Adversary: campaign.AdvNone, Seed: seed, KeySeed: k.KeySeed,
	}
	res := campaign.RunInstanceWith(inst, sc)
	if res.Err != "" {
		t.Fatalf("run failed: %s", res.Err)
	}
	p.checkin(k, sc)
	return warm
}

func TestPoolHitMissAccounting(t *testing.T) {
	p := newPool(2)
	k := poolCell()
	if warm := poolRun(t, p, k, 1); warm {
		t.Fatalf("first checkout reported warm")
	}
	if warm := poolRun(t, p, k, 2); !warm {
		t.Fatalf("second checkout missed after checkin")
	}
	other := k
	other.KeySeed = 99
	if warm := poolRun(t, p, other, 3); warm {
		t.Fatalf("different key seed hit the first cell")
	}
	s := p.snapshot()
	if s.Hits != 1 || s.Misses != 2 || s.Cells != 2 || s.Idle != 2 {
		t.Fatalf("snapshot = %+v, want hits=1 misses=2 cells=2 idle=2", s)
	}
}

// A cell parks as many setups as the server has shards — the most that
// can be checked out of it at once — and never more.
func TestPoolIdleBound(t *testing.T) {
	const shards = 3
	srv := NewServer(Config{Shards: shards})
	defer srv.Drain()
	p, k := srv.pool, poolCell()
	// One cache more than the executors could hold at once (all miss);
	// returned together, the extra one must be dropped, not parked.
	var out []*protocol.SetupCache
	for i := 0; i <= shards; i++ {
		sc, _ := p.checkout(k)
		out = append(out, sc)
	}
	for _, sc := range out {
		p.checkin(k, sc)
	}
	if s := p.snapshot(); s.Idle != shards {
		t.Fatalf("idle = %d, want %d (the shard count)", s.Idle, shards)
	}
}

// testDriver is a cacheable, setup-free driver registered from the test
// files; run is all its Run does.
type testDriver struct {
	name string
	run  func()
}

func (d testDriver) Name() string { return d.name }
func (testDriver) Capabilities() protocol.Capabilities {
	return protocol.Capabilities{CacheableSetup: true}
}
func (testDriver) Verdicts() protocol.VerdictMapper { return protocol.VerdictsAuthenticatedFD }
func (testDriver) Prepare(protocol.Instance, *protocol.SetupCache) (protocol.Setup, error) {
	return nil, nil
}
func (d testDriver) Run(protocol.Instance, protocol.Setup) (protocol.Outcome, error) {
	d.run()
	return protocol.Outcome{}, nil
}

// "test-held" parks inside Run until released, so a test can hold a
// known number of executors inside one pool cell; "test-panic" stands in
// for a driver bug.
var heldEntered, heldRelease = make(chan struct{}), make(chan struct{})

func init() {
	protocol.Register(testDriver{name: "test-held", run: func() {
		heldEntered <- struct{}{}
		<-heldRelease
	}})
	protocol.Register(testDriver{name: "test-panic", run: func() { panic("driver bug") }})
}

// Four shards hammering one cell: the first pass builds one setup per
// executor, and because the cell parks all four, the second pass — all
// four executors inside the cell at once again — misses nothing. (With
// fewer parked than shards, every such pass rebuilds the difference and
// throws it away again.)
func TestPoolSteadyStateAllHits(t *testing.T) {
	const shards = 4
	srv, _, cl := startServer(t, Config{Shards: shards}, "alpha")
	pass := func() {
		done := make(chan error, shards)
		for i := 0; i < shards; i++ {
			go func() {
				_, err := cl.Do(Request{Protocol: "test-held", N: 4, T: 1, KeySeed: 1})
				done <- err
			}()
		}
		// Consecutive instance IDs land on distinct shards; wait until
		// every executor holds a setup of the cell, then let them finish.
		for i := 0; i < shards; i++ {
			<-heldEntered
		}
		for i := 0; i < shards; i++ {
			heldRelease <- struct{}{}
		}
		for i := 0; i < shards; i++ {
			if err := <-done; err != nil {
				t.Fatalf("request failed: %v", err)
			}
		}
	}
	pass()
	first := srv.Snapshot().Pool
	if first.Misses != shards || first.Hits != 0 {
		t.Fatalf("first pass pool = %+v, want %d misses", first, shards)
	}
	// Setups are checked in before the reply is sent, so all four are
	// parked by now.
	pass()
	second := srv.Snapshot().Pool
	if second.Misses != first.Misses || second.Hits != shards {
		t.Fatalf("second pass pool = %+v, want %d hits and no new miss", second, shards)
	}
}

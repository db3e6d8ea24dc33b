package service

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/protocol"
	"repro/internal/sig"
)

func poolKey() protocol.SetupKey {
	return protocol.SetupKey{Scheme: sig.SchemeToy, N: 4, KeySeed: 1}
}

// poolRun pushes one chain instance through a checked-out cache, warming it.
func poolRun(t *testing.T, p *pool, k protocol.SetupKey, seed int64) (warm bool) {
	t.Helper()
	sc, warm := p.checkout(k)
	inst := campaign.Instance{
		Protocol: campaign.ProtoChain, N: k.N, T: 1, Scheme: k.Scheme,
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
	k := poolKey()
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
	p, k := srv.pool, poolKey()
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

// Key material is a function of (scheme, n, keySeed) alone, so every
// cluster-backed driver at every fault bound rides one key set's cell:
// ten requests over five protocols and two values of t pay setup once,
// and each verdict is still the fresh run's, byte for byte.
func TestPoolSharesKeySetAcrossProtocols(t *testing.T) {
	srv, _, cl := startServer(t, Config{Shards: 1}, "alpha")
	protocols := []string{campaign.ProtoChain, campaign.ProtoFDBA, campaign.ProtoSM,
		campaign.ProtoSmallRange, campaign.ProtoVector}
	seed := int64(0)
	for _, tol := range []int{1, 2} {
		for _, proto := range protocols {
			seed++
			req := Request{Index: int(seed), Protocol: proto, N: 7, T: tol, Scheme: sig.SchemeToy, Seed: seed, KeySeed: 5}
			reply, err := cl.Do(req)
			if err != nil {
				t.Fatalf("%s t=%d: %v", proto, tol, err)
			}
			fresh := campaign.RunInstance(campaign.Instance{
				Index: req.Index, Protocol: proto, N: req.N, T: tol, Scheme: req.Scheme,
				Adversary: campaign.AdvNone, Seed: seed, KeySeed: req.KeySeed,
			})
			if got, want := mustJSON(t, reply.Result), mustJSON(t, fresh); got != want {
				t.Fatalf("%s t=%d served over a shared key set diverges:\nserved %s\nfresh  %s", proto, tol, got, want)
			}
		}
	}
	if s := srv.Snapshot().Pool; s.Misses != 1 || s.Hits != 9 || s.Cells != 1 {
		t.Fatalf("pool = %+v, want 1 miss, 9 hits, 1 cell", s)
	}
}

// With the pool full, a new key set evicts the one checked out least
// recently — not the one inserted first.
func TestPoolEvictsLeastRecentlyUsed(t *testing.T) {
	p := newPool(1)
	key := func(i int) protocol.SetupKey {
		return protocol.SetupKey{Scheme: sig.SchemeToy, N: 4, KeySeed: int64(i)}
	}
	cycle := func(k protocol.SetupKey) (warm bool) {
		sc, warm := p.checkout(k)
		p.checkin(k, sc)
		return warm
	}
	for i := 0; i < maxPoolCells; i++ {
		cycle(key(i))
	}
	if !cycle(key(0)) { // the oldest insert is now the most recently used
		t.Fatalf("key set 0 missed before the pool was full")
	}
	cycle(key(maxPoolCells)) // evicts key set 1
	if s := p.snapshot(); s.Cells != maxPoolCells || s.Evictions != 1 {
		t.Fatalf("pool = %+v, want %d cells and 1 eviction", s, maxPoolCells)
	}
	if !cycle(key(0)) {
		t.Fatalf("the most recently used key set was evicted")
	}
	if cycle(key(1)) {
		t.Fatalf("the least recently used key set survived the insert")
	}
}

// Sixteen recurring key sets interleaved with three pools' worth of
// one-off key seeds: the bound holds, every recurring key set hits after
// its first use (FIFO would evict them), and an evicted key set's next
// request rebuilds to the fresh run's verdict.
func TestPoolKeepsRecurringKeySetsUnderChurn(t *testing.T) {
	const shards, recurring, oneOffs = 2, 16, 3 * maxPoolCells
	srv, _, cl := startServer(t, Config{Shards: shards}, "alpha")
	do := func(keySeed int64) *Reply {
		t.Helper()
		req := chainRequest(keySeed)
		req.KeySeed = keySeed
		reply, err := cl.Do(req)
		if err != nil {
			t.Fatalf("key seed %d: %v", keySeed, err)
		}
		return reply
	}
	sent := 0
	for round := 0; sent < oneOffs; round++ {
		for k := int64(1); k <= recurring; k++ {
			if reply := do(k); round > 0 && reply.Source != "pool-hit" {
				t.Fatalf("round %d: recurring key seed %d was %s", round, k, reply.Source)
			}
		}
		for i := 0; i < recurring && sent < oneOffs; i++ {
			sent++
			do(int64(1000 + sent))
		}
	}
	s := srv.Snapshot().Pool
	if s.Cells > maxPoolCells || s.Idle > maxPoolCells*shards {
		t.Fatalf("pool = %+v, want ≤ %d cells and ≤ %d parked", s, maxPoolCells, maxPoolCells*shards)
	}
	if want := int64(recurring + oneOffs - s.Cells); s.Evictions != want {
		t.Fatalf("evictions = %d, want %d (key sets seen − cells held)", s.Evictions, want)
	}
	reply := do(1001) // the first one-off, long evicted
	if reply.Source != "pool-miss" {
		t.Fatalf("evicted key set served as %s", reply.Source)
	}
	fresh := campaign.RunInstance(campaign.Instance{
		Protocol: campaign.ProtoChain, N: 4, T: 1, Scheme: sig.SchemeToy,
		Adversary: campaign.AdvNone, Seed: 1001, KeySeed: 1001,
	})
	if got, want := mustJSON(t, reply.Result), mustJSON(t, fresh); got != want {
		t.Fatalf("evicted key set's rebuild diverges:\nserved %s\nfresh  %s", got, want)
	}
}

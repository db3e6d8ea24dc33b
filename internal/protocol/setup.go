package protocol

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/keydist"
	"repro/internal/sig"
)

// The amortized-setup store. RSA/ECDSA/Ed25519 key generation plus the
// 3n(n−1)-message handshake dwarf the n−1-message protocol being
// measured, and key material is a pure function of (scheme, n, keySeed)
// — constant across a seed sweep. What the handshake leaves behind, each
// node's key pair and its keydist.Directory, never changes from then on
// (a signer may keep a synchronized memory of what it has signed, which
// no byte of any signature depends on), so one bounded store holds it for
// every worker of a sweep and every driver that runs over established
// authentication (chain, smallrange, fdba, sm, vector): the handshake is
// paid once per cell per sweep. Because keys are pinned by
// Instance.KeySeed, a run over a warm cell derives byte-identical wire
// traffic to a fresh one — the cached-vs-fresh differential test and CI
// step keep that true forever.

// SetupKey identifies one cell of established material: exactly what
// the handshake's outcome is a function of (key distribution never reads
// the fault bound).
type SetupKey struct {
	Scheme  string
	N       int
	KeySeed int64
	// Setup is "" for the honest handshake, else the canonical name of the
	// corrupt set and its attack ("nodes-5.setup-foreign-claim").
	Setup string
}

// KeyOf returns the instance's cell: the one key every setup store uses.
func KeyOf(inst Instance) SetupKey {
	k := SetupKey{Scheme: inst.Scheme, N: inst.N, KeySeed: inst.KeySeed}
	if s := inst.Strategy; s.Setup != "" {
		k.Setup = adversary.Strategy{Nodes: s.Nodes, Setup: s.Setup}.CanonicalName()
	}
	return k
}

// DefaultSetupCacheCap bounds a store. A sweep shares one key seed, so
// its cells are its (scheme, n) pairs; a grid with more than eight
// re-pays a handshake when it returns to an evicted one. Bounded per
// PERF.md ground rules.
const DefaultSetupCacheCap = 8

// SetupCache is a bounded FIFO store of established material, safe for
// concurrent use. A cold cell is built once however many goroutines ask
// for it together — the rest block until it is ready — and a build that
// errors or panics leaves nothing behind, so the next lookup builds again.
type SetupCache struct {
	mu           sync.Mutex
	cap          int
	cells        map[SetupKey]*setupCell
	order        []SetupKey // insertion order; index 0 evicts first
	hits, misses int
}

// setupCell is in flight until ready is closed; nodes is written before
// the close and never after, and stays nil if the build failed.
type setupCell struct {
	ready chan struct{}
	nodes []*keydist.Node
}

// NewSetupCache returns an empty store bounded to capacity cells
// (DefaultSetupCacheCap if capacity < 1).
func NewSetupCache(capacity int) *SetupCache {
	if capacity < 1 {
		capacity = DefaultSetupCacheCap
	}
	return &SetupCache{cap: capacity, cells: make(map[SetupKey]*setupCell, capacity)}
}

// Len returns the number of cells, in-flight builds included.
func (sc *SetupCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.cells)
}

// Stats returns the lifetime lookup counts — the measured form of the
// amortization the store exists for: misses is the builds started, hits
// the lookups served by someone else's build (waits included). A sweep
// shows misses = distinct cells.
func (sc *SetupCache) Stats() (hits, misses int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.hits, sc.misses
}

// SignCounts sums sig.SignCounts over the signers of every live, built
// cell: the signatures the store's key sets were asked for, handshake
// included, and how many of those they had to compute.
func (sc *SetupCache) SignCounts() (requested, computed uint64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, cell := range sc.cells {
		select {
		case <-cell.ready:
		default:
			continue // still building: nodes is not ours to read yet
		}
		for _, node := range cell.nodes {
			r, c := sig.SignCounts(node.Signer())
			requested += r
			computed += c
		}
	}
	return requested, computed
}

// Established returns the shared, read-only established nodes of the
// instance's cell, building them on a miss, and says how through
// inst.SetupServed. A nil store builds fresh from the instance's seeds;
// the two derive identical wire bytes, because key material is a pure
// function of the cell either way.
func (sc *SetupCache) Established(inst Instance) ([]*keydist.Node, error) {
	if sc == nil {
		return establish(inst)
	}
	nodes, served, err := sc.lookup(inst)
	if inst.SetupServed != nil {
		*inst.SetupServed = served
	}
	return nodes, err
}

func (sc *SetupCache) lookup(inst Instance) (nodes []*keydist.Node, served string, err error) {
	k := KeyOf(inst)
	served = "hit"
	sc.mu.Lock()
	for cell := sc.cells[k]; cell != nil; cell = sc.cells[k] {
		select {
		case <-cell.ready:
		default:
			served = "wait"
			sc.mu.Unlock()
			<-cell.ready
			sc.mu.Lock()
		}
		if cell.nodes != nil {
			sc.hits++
			sc.mu.Unlock()
			return cell.nodes, served, nil
		}
		// The build waited on failed and took its cell with it: look
		// again, and build under this instance's own seeds if nobody has.
	}
	cell := &setupCell{ready: make(chan struct{})}
	if len(sc.cells) >= sc.cap {
		// An evicted cell still in flight finishes for those holding it.
		delete(sc.cells, sc.order[0])
		sc.order = sc.order[1:]
	}
	sc.cells[k] = cell
	sc.order = append(sc.order, k)
	sc.misses++
	sc.mu.Unlock()

	defer func() {
		if cell.nodes == nil { // the build failed or panicked
			sc.mu.Lock()
			if sc.cells[k] == cell { // not evicted meanwhile
				delete(sc.cells, k)
				sc.order = slices.DeleteFunc(sc.order, func(o SetupKey) bool { return o == k })
			}
			sc.mu.Unlock()
		}
		close(cell.ready)
	}()
	cell.nodes, err = establish(inst)
	return cell.nodes, "miss", err
}

// establish is the one place setup is paid: generate the instance's key
// material, run the Fig. 1 handshake under the instance's setup attack
// (SetupOptions), return the established nodes.
func establish(inst Instance) ([]*keydist.Node, error) {
	c, err := newCluster(inst)
	var opts []core.RunOption
	if err == nil {
		opts, err = SetupOptions(inst)
	}
	if err == nil {
		_, err = c.EstablishAuthentication(opts...)
	}
	if err != nil {
		return nil, err
	}
	for _, node := range c.Nodes() {
		if inst.Strategy.Setup == "" && !node.Accepted() {
			return nil, fmt.Errorf("protocol: honest key distribution left node %v unestablished", node.ID())
		}
	}
	return c.Nodes(), nil
}

// ClusterSetup returns the instance's own cluster: a fresh shell around
// established nodes — its store cell's, or without a store ones built
// for it, so cached and fresh runs share one construction path (the
// differential tests then prove them equal byte for byte) — or, when
// establish is unset, a bare cluster that has nothing to share.
// RunInstance calls it for every run, with establish set when the driver
// signs.
func ClusterSetup(inst Instance, cache *SetupCache, establish bool) (*core.Cluster, error) {
	if !establish {
		return newCluster(inst)
	}
	nodes, err := cache.Established(inst)
	if err != nil {
		return nil, err
	}
	return core.NewEstablished(inst.Config(), nodes)
}

// newCluster builds the instance's unestablished cluster with split
// entropy: run randomness from Seed, key material pinned to KeySeed.
func newCluster(inst Instance) (*core.Cluster, error) {
	opts := []core.Option{core.WithSeed(inst.Seed), core.WithKeySeed(inst.KeySeed)}
	if inst.Scheme != "" {
		opts = append(opts, core.WithScheme(inst.Scheme))
	}
	return core.New(inst.Config(), opts...)
}

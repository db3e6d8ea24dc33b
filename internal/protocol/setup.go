package protocol

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// The amortized-setup cache. RSA/ECDSA/Ed25519 key generation plus the
// 3n(n−1)-message handshake dwarf the n−1-message protocol being
// measured, and a seed sweep regenerates both per instance even though
// key material is a pure function of (scheme, n, keySeed) — constant
// across the sweep. Each campaign worker owns one bounded cache of
// established setups; an instance whose cell is cached skips keygen and
// the handshake entirely and just Resets the cluster onto its run seed.
// The cache is deliberately single-owner (no locks, no cross-shard
// coupling), and because keys are pinned by Instance.KeySeed, a cached
// run derives byte-identical wire traffic to a fresh one — the
// cached-vs-fresh differential test and CI step keep that true forever.
//
// Cache cells are keyed by Kind, not by driver name: every driver whose
// setup is an established cluster (chain, smallrange, fdba, sm) shares
// the SetupKindCluster cell of its (scheme, n, t, keySeed) coordinates,
// so a multi-protocol grid pays one handshake per cell, not one per
// driver.

// Setup kinds cached per (scheme, n, t, keySeed) cell.
const (
	// SetupKindCluster is an established core.Cluster.
	SetupKindCluster = "cluster"
	// SetupKindVectorMaterial is the keydist node set backing vector runs.
	SetupKindVectorMaterial = "vector-material"
)

// SetupKey identifies one cached setup cell. T rides along even though
// key material does not depend on it, so a cached cluster's Config
// always matches the instance exactly; Established keeps clusters that
// ran the authentication handshake in separate cells from ones that did
// not, so drivers with different establish choices can never hand each
// other the wrong cluster state.
type SetupKey struct {
	Kind        string
	Scheme      string
	N, T        int
	KeySeed     int64
	Established bool
}

// DefaultSetupCacheCap bounds each cache. A sweep iterates the grid cell
// by cell (seeds innermost), so even 1 entry captures the amortization
// within a cell; a few more keep multi-protocol grids that revisit cells
// warm. Bounded per PERF.md ground rules.
const DefaultSetupCacheCap = 8

// SetupCache is one worker's bounded FIFO setup store. Not safe for
// concurrent use — every worker owns its own.
type SetupCache struct {
	cap     int
	entries map[SetupKey]any
	order   []SetupKey // insertion order; index 0 evicts first
	hits    int
	misses  int
}

// NewSetupCache returns an empty cache bounded to capacity entries
// (DefaultSetupCacheCap if capacity < 1).
func NewSetupCache(capacity int) *SetupCache {
	if capacity < 1 {
		capacity = DefaultSetupCacheCap
	}
	return &SetupCache{cap: capacity, entries: make(map[SetupKey]any, capacity)}
}

// Get returns the cached value under k, if any, counting the lookup as
// a hit or miss for the Stats amortization readout.
func (sc *SetupCache) Get(k SetupKey) (any, bool) {
	v, ok := sc.entries[k]
	if ok {
		sc.hits++
	} else {
		sc.misses++
	}
	return v, ok
}

// Put stores v under k, evicting the oldest entry at capacity. Storing
// an existing key replaces its value without duplicating it in the
// eviction order.
func (sc *SetupCache) Put(k SetupKey, v any) {
	if _, ok := sc.entries[k]; ok {
		sc.entries[k] = v
		return
	}
	if len(sc.entries) >= sc.cap {
		oldest := sc.order[0]
		sc.order = sc.order[1:]
		delete(sc.entries, oldest)
	}
	sc.entries[k] = v
	sc.order = append(sc.order, k)
}

// Len returns the number of cached cells (for tests).
func (sc *SetupCache) Len() int { return len(sc.entries) }

// Stats returns the lifetime hit/miss lookup counts — the measured form
// of the amortization the cache exists for. hits+misses is the number
// of Get calls; a warm sweep shows hits ≈ instances − cells.
func (sc *SetupCache) Stats() (hits, misses int) { return sc.hits, sc.misses }

// ClusterSetup returns the instance's cluster, established when
// establish is set. With a cache, the (scheme, n, t, keySeed) cell is
// reused when warm — built and cached on a miss — and the cluster is
// Reset onto the instance's run seed either way; clusters are handed out
// serially within one worker, never shared across workers. Without a
// cache the cluster is built fresh from the instance's seeds directly.
// Both paths derive identical wire bytes, because key material is a pure
// function of (Scheme, N, KeySeed) either way.
func ClusterSetup(inst Instance, cache *SetupCache, establish bool) (*core.Cluster, error) {
	if cache == nil {
		return EstablishedCluster(inst, establish)
	}
	k := SetupKey{Kind: SetupKindCluster, Scheme: inst.Scheme, N: inst.N, T: inst.T,
		KeySeed: inst.KeySeed, Established: establish}
	if v, ok := cache.Get(k); ok {
		c := v.(*core.Cluster)
		c.Reset(inst.Seed)
		return c, nil
	}
	c, err := EstablishedCluster(inst, establish)
	if err != nil {
		return nil, err
	}
	cache.Put(k, c)
	c.Reset(inst.Seed)
	return c, nil
}

// EstablishedCluster builds the instance's cluster with split entropy —
// run randomness from Seed, key material pinned to KeySeed — and, when
// establish is set, runs the authentication handshake. This is the
// single construction site shared by the fresh execution path and the
// cache-miss path, which is what makes the two structurally
// interchangeable (the differential tests then prove it byte for byte).
func EstablishedCluster(inst Instance, establish bool) (*core.Cluster, error) {
	opts := []core.Option{core.WithSeed(inst.Seed), core.WithKeySeed(inst.KeySeed)}
	if inst.Scheme != "" {
		opts = append(opts, core.WithScheme(inst.Scheme))
	}
	c, err := core.New(inst.Config(), opts...)
	if err != nil {
		return nil, err
	}
	if establish {
		if _, err := c.EstablishAuthentication(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// VectorMaterial returns the established keydist node set (signers and
// directories) for a vector instance's cell, reusing the cache when warm
// and building on a miss. The material is handshake output and is
// read-only during vector runs, so any number of sequential runs may
// share it.
func VectorMaterial(inst Instance, cache *SetupCache) ([]*keydist.Node, error) {
	if cache == nil {
		return newVectorMaterial(inst)
	}
	k := SetupKey{Kind: SetupKindVectorMaterial, Scheme: inst.Scheme, N: inst.N, T: inst.T,
		KeySeed: inst.KeySeed, Established: true}
	if v, ok := cache.Get(k); ok {
		return v.([]*keydist.Node), nil
	}
	nodes, err := newVectorMaterial(inst)
	if err != nil {
		return nil, err
	}
	cache.Put(k, nodes)
	return nodes, nil
}

// newVectorMaterial generates a vector instance's key material and runs
// the honest key-distribution phase (the paper's once-amortized setup),
// returning the established nodes.
func newVectorMaterial(inst Instance) ([]*keydist.Node, error) {
	cfg := inst.Config()
	scheme, err := sig.ByName(inst.Scheme)
	if err != nil {
		return nil, err
	}
	kdNodes := make([]*keydist.Node, inst.N)
	kdProcs := make([]sim.Process, inst.N)
	for i := 0; i < inst.N; i++ {
		node, err := keydist.NewNode(cfg, model.NodeID(i), scheme,
			sim.SeededReader(sim.NodeSeed(inst.Seed, i)),
			keydist.WithKeyRand(sim.SeededReader(sim.KeyMaterialSeed(inst.KeySeed, i))))
		if err != nil {
			return nil, err
		}
		kdNodes[i] = node
		kdProcs[i] = node
	}
	if _, err := sim.RunInstance(cfg, kdProcs, keydist.RoundsTotal); err != nil {
		return nil, err
	}
	for _, node := range kdNodes {
		if !node.Accepted() {
			return nil, fmt.Errorf("protocol: honest key distribution left node %v unestablished", node.ID())
		}
	}
	return kdNodes, nil
}

package service

import (
	"sync"

	"repro/internal/protocol"
)

// The warm-cluster pool. A long-lived daemon serving a sustained
// request stream must not pay keygen plus the 3n(n−1)-message handshake
// per request — the paper's amortization argument, made a service
// property. The pool keeps idle *protocol.SetupCache values per
// (protocol, scheme, n, t, keySeed) cell: an executor checks one out,
// runs the request through the ordinary driver Prepare path (a warm
// cache wraps its established nodes in the request's own cluster, a
// cold one runs the handshake and keeps them), and checks it back in.
// Because key material is a pure function of (Scheme, N, KeySeed), a
// served verdict is byte-identical to a one-shot campaign.Run of the
// same instance — the differential test pins that.
//
// A checked-out cache has one user at a time. SetupCache does not need
// that, but the hit/miss/idle bookkeeping below is defined by it;
// the pool's lock covers only the idle lists, so executors never
// serialize behind each other's runs. (One store for the whole daemon —
// one handshake per key set instead of one per cell and shard — is
// ROADMAP item 2's open remainder.)

// cellKey identifies one warm-pool cell. Protocol rides along even
// though cluster cells are shareable across the cluster-driver family:
// per-protocol cells keep checkout fair under mixed workloads and make
// the /debug/serve cell listing legible.
type cellKey struct {
	Protocol string
	Scheme   string
	N, T     int
	KeySeed  int64
}

// pool is the concurrency-safe warm-setup store. Each cell parks at most
// idlePerKey caches: the server passes its shard count, because at most
// that many executors can hold one cell's setups at once — so every
// cache an executor built finds room on check-in, and the steady state
// of any cell is all hits.
type pool struct {
	mu         sync.Mutex
	idlePerKey int
	cells      map[cellKey][]*protocol.SetupCache

	hits   int64
	misses int64
}

func newPool(idlePerKey int) *pool {
	return &pool{idlePerKey: idlePerKey, cells: make(map[cellKey][]*protocol.SetupCache)}
}

// checkout hands the caller an exclusively owned setup cache for the
// cell: a warm idle one when available (hit), a fresh empty one
// otherwise (miss — the first run through it pays setup once and leaves
// it warm for check-in).
func (p *pool) checkout(k cellKey) (sc *protocol.SetupCache, warm bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if idle := p.cells[k]; len(idle) > 0 {
		sc = idle[len(idle)-1]
		p.cells[k] = idle[:len(idle)-1]
		p.hits++
		return sc, true
	}
	p.misses++
	// Small per-cache bound: a cell reads one (scheme, n, keySeed) key
	// set, and the pool bounds cache count per cell.
	return protocol.NewSetupCache(2), false
}

// checkin returns a checked-out cache to its cell. A cache that arrives
// when the cell's idle list is full is dropped — the next checkout
// rebuilds from seeds.
func (p *pool) checkin(k cellKey, sc *protocol.SetupCache) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if idle := p.cells[k]; len(idle) < p.idlePerKey {
		p.cells[k] = append(idle, sc)
	}
}

// PoolSnapshot is the pool's row in the stats snapshot.
type PoolSnapshot struct {
	// Cells is the number of distinct (protocol, scheme, n, t, keySeed)
	// cells the pool has seen; Idle counts the warm caches parked across
	// them right now.
	Cells int `json:"cells"`
	Idle  int `json:"idle"`
	// Hits and Misses count checkouts that found, respectively missed, a
	// warm cache.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (p *pool) snapshot() PoolSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolSnapshot{Cells: len(p.cells), Hits: p.hits, Misses: p.misses}
	for _, idle := range p.cells {
		s.Idle += len(idle)
	}
	return s
}

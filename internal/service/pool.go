package service

import (
	"sync"

	"repro/internal/protocol"
)

// The warm-cluster pool. A long-lived daemon serving a sustained
// request stream must not pay keygen plus the 3n(n−1)-message handshake
// per request — the paper's amortization argument, made a service
// property. Idle *protocol.SetupCache values are pooled per key set
// (scheme, n, keySeed), at most 64 key sets, least recently used
// evicted: an executor checks one out, runs the request through the
// ordinary driver Prepare path (a warm cache wraps its established nodes
// in the request's own cluster, a cold one runs the handshake and keeps
// them), and checks it back in. Key material is a pure function of the
// key set, so every cluster-backed driver at any t shares its cell, and
// a served verdict is byte-identical to a one-shot campaign.Run of the
// same instance — the differential tests pin that.
//
// A checked-out cache has one user at a time. SetupCache does not need
// that, but the hit/miss/idle bookkeeping below is defined by it;
// the pool's lock covers only the idle lists, so executors never
// serialize behind each other's runs. (One store for the whole daemon —
// one handshake per key set, not per shard — is ROADMAP item 11(c),
// blocked on 9(c): serve_steady's warm-up gates on Pool.Idle.)

// maxPoolCells bounds the pool. Key seeds are client-chosen: one-off
// seeds evict each other, not the recurring key sets.
const maxPoolCells = 64

// pool is the concurrency-safe warm-setup store. Each cell parks at most
// idlePerKey caches: the server passes its shard count, because at most
// that many executors can hold one cell's setups at once — so every
// cache an executor built finds room on check-in, and the steady state
// of any cell is all hits.
type pool struct {
	mu         sync.Mutex
	idlePerKey int
	cells      map[protocol.SetupKey]*poolCell
	clock      int64 // checkouts so far

	hits, misses, evictions int64
}

// poolCell is one key set's parked caches and the clock at its latest checkout.
type poolCell struct {
	idle []*protocol.SetupCache
	used int64
}

func newPool(idlePerKey int) *pool {
	return &pool{idlePerKey: idlePerKey, cells: make(map[protocol.SetupKey]*poolCell)}
}

// checkout hands the caller an exclusively owned setup cache for the
// key set: a warm idle one when available (hit), a fresh empty one
// otherwise (miss — the first run through it pays setup once and leaves
// it warm for check-in).
func (p *pool) checkout(k protocol.SetupKey) (sc *protocol.SetupCache, warm bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock++
	if c := p.cells[k]; c != nil {
		c.used = p.clock
		if n := len(c.idle); n > 0 {
			sc, c.idle = c.idle[n-1], c.idle[:n-1]
			p.hits++
			return sc, true
		}
	}
	p.misses++
	return protocol.NewSetupCache(1), false
}

// checkin returns a checked-out cache to its cell. A new key set enters
// as the most recently used, evicting the least recently used cell when
// the pool is full; a cache that arrives when its cell's idle list is
// full is dropped — the next checkout rebuilds from seeds.
func (p *pool) checkin(k protocol.SetupKey, sc *protocol.SetupCache) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.cells[k]
	if c == nil {
		if len(p.cells) >= maxPoolCells {
			// A linear scan: inserts follow a miss that just paid a handshake.
			var victim protocol.SetupKey
			oldest := p.clock + 1
			for key, cell := range p.cells {
				if cell.used < oldest {
					victim, oldest = key, cell.used
				}
			}
			delete(p.cells, victim)
			p.evictions++
		}
		c = &poolCell{used: p.clock}
		p.cells[k] = c
	}
	if len(c.idle) < p.idlePerKey {
		c.idle = append(c.idle, sc)
	}
}

// PoolSnapshot is the pool's row in the stats snapshot.
type PoolSnapshot struct {
	// Cells counts the key sets (scheme, n, keySeed) held, at most 64;
	// Idle the warm caches parked across them right now.
	Cells int `json:"cells"`
	Idle  int `json:"idle"`
	// Hits and Misses count checkouts that found, respectively missed, a
	// warm cache; Evictions counts cells dropped to admit a new key set.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (p *pool) snapshot() PoolSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolSnapshot{Cells: len(p.cells), Hits: p.hits, Misses: p.misses, Evictions: p.evictions}
	for _, c := range p.cells {
		s.Idle += len(c.idle)
	}
	return s
}

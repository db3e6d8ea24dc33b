package service

import (
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// StatsSchema identifies the service snapshot JSON layout — the
// document /debug/serve serves live, KindStats returns over the wire,
// and cmd/fdserve writes on graceful drain (a valid partial snapshot
// even when clients were mid-stream).
const StatsSchema = "fdserve-stats/v1"

// latencyWindow bounds the sliding latency/queue-wait sample windows: a
// daemon serving millions of requests must summarize recent behavior in
// O(window) memory, not accumulate every sample forever.
const latencyWindow = 4096

// TenantSnapshot is one tenant's row.
type TenantSnapshot struct {
	Tenant string `json:"tenant"`
	// Submitted counts admitted requests; Served the completed ones
	// (errored runs included — Errors sub-counts those); Rejected the
	// admission-control refusals (busy/draining/bad-request).
	Submitted int64 `json:"submitted"`
	Served    int64 `json:"served"`
	Rejected  int64 `json:"rejected"`
	Errors    int64 `json:"errors"`
	// Conformant counts served runs whose verdict passed every scored
	// predicate.
	Conformant int64 `json:"conformant"`
}

// Snapshot is the live service view: admission and completion counters
// per tenant and in total, queue depth, pool amortization, and the
// end-to-end latency and queue-wait distributions over the most recent
// latencyWindow requests (milliseconds). Advisory telemetry — verdict
// bytes never depend on it.
type Snapshot struct {
	Schema    string    `json:"schema"`
	UpdatedAt time.Time `json:"updated_at"`
	Draining  bool      `json:"draining"`
	Shards    int       `json:"shards"`

	Submitted int64 `json:"submitted"`
	Served    int64 `json:"served"`
	Rejected  int64 `json:"rejected"`
	Errors    int64 `json:"errors"`
	Queued    int64 `json:"queued"`
	// Panics counts requests whose driver panicked; each was answered
	// with an error (and is in Errors too) and its pooled setup dropped.
	Panics int64 `json:"panics"`

	Pool    PoolSnapshot     `json:"pool"`
	Tenants []TenantSnapshot `json:"tenants,omitempty"`

	LatencyMS   metrics.Dist `json:"latency_ms"`
	QueueWaitMS metrics.Dist `json:"queue_wait_ms"`
}

// maxTenants bounds the per-tenant rows. A client names its own tenant,
// so a daemon that kept a row per name ever sent would grow without
// bound; past this many, the least recently active tenant's row goes.
// The server totals are kept apart and stay exact.
const maxTenants = 1024

// serverStats aggregates per-tenant counters and the bounded sample
// windows under one lock; executors record one completion each, so the
// critical sections are tiny.
type serverStats struct {
	mu      sync.Mutex
	tenants map[string]*tenantRow
	// total counts every request, evicted tenants' included.
	total TenantSnapshot
	// clock counts recordings; a row's seen is the clock at its last one.
	clock     uint64
	latency   *metrics.Window
	queueWait *metrics.Window
}

// tenantRow is a tenant's counters and when it was last active.
type tenantRow struct {
	TenantSnapshot
	seen uint64
}

func newServerStats() *serverStats {
	return &serverStats{
		tenants:   make(map[string]*tenantRow),
		latency:   metrics.NewWindow(latencyWindow),
		queueWait: metrics.NewWindow(latencyWindow),
	}
}

// rows returns the tenant's counters and the server totals, for a
// recording to bump both. A new tenant at the bound takes over the
// least recently active tenant's row, so it allocates nothing.
func (s *serverStats) rows(name string) [2]*TenantSnapshot {
	s.clock++
	r, ok := s.tenants[name]
	if !ok {
		if len(s.tenants) < maxTenants {
			r = new(tenantRow)
		} else {
			for _, o := range s.tenants {
				if r == nil || o.seen < r.seen {
					r = o
				}
			}
			delete(s.tenants, r.Tenant)
		}
		*r = tenantRow{TenantSnapshot: TenantSnapshot{Tenant: name}}
		s.tenants[name] = r
	}
	r.seen = s.clock
	return [2]*TenantSnapshot{&r.TenantSnapshot, &s.total}
}

func (s *serverStats) submitted(tenant string, n int) {
	s.mu.Lock()
	for _, c := range s.rows(tenant) {
		c.Submitted += int64(n)
	}
	s.mu.Unlock()
}

func (s *serverStats) rejected(tenant string) {
	s.mu.Lock()
	for _, c := range s.rows(tenant) {
		c.Rejected++
	}
	s.mu.Unlock()
}

func (s *serverStats) served(tenant string, errored, conformant bool, latency, queueWait time.Duration) {
	s.mu.Lock()
	for _, c := range s.rows(tenant) {
		c.Served++
		if errored {
			c.Errors++
		}
		if conformant {
			c.Conformant++
		}
	}
	s.latency.Add(float64(latency.Nanoseconds()) / 1e6)
	s.queueWait.Add(float64(queueWait.Nanoseconds()) / 1e6)
	s.mu.Unlock()
}

// fill copies the counters and distributions into snap; tenants are
// sorted by name so snapshots render stably.
func (s *serverStats) fill(snap *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		snap.Tenants = append(snap.Tenants, t.TenantSnapshot)
	}
	snap.Submitted, snap.Served = s.total.Submitted, s.total.Served
	snap.Rejected, snap.Errors = s.total.Rejected, s.total.Errors
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Tenant < snap.Tenants[j].Tenant })
	snap.LatencyMS = s.latency.Dist()
	snap.QueueWaitMS = s.queueWait.Dist()
}

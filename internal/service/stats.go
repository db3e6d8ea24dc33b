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

// serverStats aggregates per-tenant counters and the bounded sample
// windows under one lock; executors record one completion each, so the
// critical sections are tiny.
type serverStats struct {
	mu        sync.Mutex
	tenants   map[string]*TenantSnapshot
	latency   *metrics.Window
	queueWait *metrics.Window
}

func newServerStats() *serverStats {
	return &serverStats{
		tenants:   make(map[string]*TenantSnapshot),
		latency:   metrics.NewWindow(latencyWindow),
		queueWait: metrics.NewWindow(latencyWindow),
	}
}

func (s *serverStats) tenant(name string) *TenantSnapshot {
	t, ok := s.tenants[name]
	if !ok {
		t = &TenantSnapshot{Tenant: name}
		s.tenants[name] = t
	}
	return t
}

func (s *serverStats) submitted(tenant string, n int) {
	s.mu.Lock()
	s.tenant(tenant).Submitted += int64(n)
	s.mu.Unlock()
}

func (s *serverStats) rejected(tenant string) {
	s.mu.Lock()
	s.tenant(tenant).Rejected++
	s.mu.Unlock()
}

func (s *serverStats) served(tenant string, errored, conformant bool, latency, queueWait time.Duration) {
	s.mu.Lock()
	t := s.tenant(tenant)
	t.Served++
	if errored {
		t.Errors++
	}
	if conformant {
		t.Conformant++
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
		snap.Tenants = append(snap.Tenants, *t)
		snap.Submitted += t.Submitted
		snap.Served += t.Served
		snap.Rejected += t.Rejected
		snap.Errors += t.Errors
	}
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Tenant < snap.Tenants[j].Tenant })
	snap.LatencyMS = s.latency.Dist()
	snap.QueueWaitMS = s.queueWait.Dist()
}

package sched

import (
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// DebugSchema identifies the live scheduler snapshot JSON layout.
const DebugSchema = "fdsched-debug/v1"

// WorkerDebug is one worker's row in the live snapshot.
type WorkerDebug struct {
	Name string `json:"name"`
	Gone bool   `json:"gone"`
	Busy bool   `json:"busy"`
	// Lease and Batch identify the lease the worker holds (Busy only).
	Lease int `json:"lease,omitempty"`
	Batch int `json:"batch,omitempty"`
	// HeartbeatAgeMS is how long ago the worker's last heartbeat arrived;
	// -1 until the first one. A live worker whose age approaches the
	// lease TTL is about to be revoked.
	HeartbeatAgeMS int64 `json:"heartbeat_age_ms"`
}

// BatchDebug tallies the task queue by state.
type BatchDebug struct {
	Pending  int `json:"pending"`
	Inflight int `json:"inflight"`
	Done     int `json:"done"`
	Dead     int `json:"dead"`
}

// DebugSnapshot is the coordinator's live view: queue depth, control-
// plane counters, and per-worker status. It is advisory telemetry
// (wall-clock, placement) — exactly the data the deterministic report
// excludes — published lock-free by the run loop on every state change.
type DebugSnapshot struct {
	Schema    string                `json:"schema"`
	UpdatedAt time.Time             `json:"updated_at"`
	Instances int                   `json:"instances"`
	Batches   BatchDebug            `json:"batches"`
	Stats     metrics.SchedCounters `json:"stats"`
	// Conn aggregates wire traffic over every adopted worker connection
	// — frames, payload bytes, and dial retries — so flaky links show up
	// live (a climbing redial count is a degraded network, not a bug in
	// the lease protocol).
	Conn    transport.ConnStatsSnapshot `json:"conn"`
	Workers []WorkerDebug               `json:"workers,omitempty"`
}

// Debug returns the latest published snapshot (zero-valued before
// Execute starts). Safe to call from any goroutine at any time.
func (c *Coordinator) Debug() DebugSnapshot {
	if s := c.snap.Load(); s != nil {
		return *s
	}
	return DebugSnapshot{Schema: DebugSchema}
}

// publish rebuilds and stores the snapshot; called only from the run
// loop, so it reads loop state without locks and readers see a fresh
// immutable copy.
func (r *runLoop) publish(now time.Time) {
	if r.snap == nil {
		return
	}
	s := &DebugSnapshot{
		Schema:    DebugSchema,
		UpdatedAt: now,
		Instances: len(r.instances),
		Stats:     r.outcome.Stats,
		Conn:      r.connStats.Snapshot(),
	}
	for _, t := range r.tasks {
		switch t.state {
		case taskPending:
			s.Batches.Pending++
		case taskInflight:
			s.Batches.Inflight++
		case taskDone:
			s.Batches.Done++
		case taskDead:
			s.Batches.Dead++
		}
	}
	for _, w := range r.workers {
		wd := WorkerDebug{Name: w.name, Gone: w.gone, Busy: w.busy != nil, HeartbeatAgeMS: -1}
		if w.busy != nil {
			wd.Lease = w.busy.id
			wd.Batch = w.busy.task.id
		}
		if !w.lastBeat.IsZero() {
			wd.HeartbeatAgeMS = now.Sub(w.lastBeat).Milliseconds()
		}
		s.Workers = append(s.Workers, wd)
	}
	r.snap.Store(s)
}

// DebugMux returns the coordinator's debug HTTP surface: the live
// DebugSnapshot as JSON at /debug/sched beside the expvar and pprof
// routes of transport.DebugMux. cmd/fdcampaign serves it behind
// -debug-addr while a distributed campaign runs.
func (c *Coordinator) DebugMux() *http.ServeMux {
	return transport.DebugMux("/debug/sched", func() any { return c.Debug() })
}

// Package sched is the fault-tolerant coordinator/worker campaign
// scheduler: the distributed counterpart of campaign.Local. A
// Coordinator expands nothing itself — it implements campaign.Scheduler,
// so campaign.RunWith hands it the deterministically expanded instance
// list — and leases contiguous instance batches to workers over
// transport.Conn links (in-memory pipes in tests, TCP across processes).
// A worker is an agreement-service session (internal/service) dialled
// out to the coordinator: a lease is one service batch frame, answered
// with results or a reject, and heartbeated while it runs.
//
// The paper's subject is agreement despite faulty participants; this
// package applies the same discipline to the campaign infrastructure
// itself. Leases carry deadlines extended by heartbeats; the coordinator
// detects expiry, disconnect, rejection, and corrupt results, requeues
// the batch with exponential backoff onto workers outside the batch's
// excluded-worker set, and after a bounded retry budget parks the batch
// in a dead-letter queue recording every attempt's worker, error, and
// timing — the sweep COMPLETES and reports the DLQ rather than hanging
// or aborting.
//
// Determinism contract: the aggregate fdcampaign/v1 report is
// byte-identical regardless of worker count, placement, or retry
// history. The scheduler can guarantee this because instance execution
// is a pure function of the instance (campaign.Executor), results land
// in their instance's slot no matter which attempt produced them, and
// everything the scheduler DOES decide — who ran what, when, after how
// many retries — is recorded only in the Outcome envelope next to the
// report, never inside it. sched/faults plus the invariance tests prove
// the contract under injected crash, stall, disconnect, and
// corrupt-result schedules.
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - runLoop.handleReject, deadLetter, drain: fault paths the unit fault suite fires; CI fires only crash@2.
//   - Coordinator.Debug, DebugMux: fdcampaign -debug-addr's telemetry, which no smoke serves; debug_test reads it.
package sched

import (
	"hash/fnv"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Config tunes the coordinator. The zero value is usable: every field
// falls back to the default documented on it.
type Config struct {
	// BatchSize is the number of instances per lease (default 8).
	// Batches are contiguous index ranges, so a batch is identified by
	// its [Lo, Hi) slice of the expansion order.
	BatchSize int
	// LeaseTTL is how long a worker may hold a lease without a heartbeat
	// before the coordinator revokes and requeues it (default 30s).
	LeaseTTL time.Duration
	// RetryBudget bounds the attempts per batch, the first included
	// (default 4). A batch failing RetryBudget times is dead-lettered.
	RetryBudget int
	// BackoffBase and BackoffMax shape the requeue delay: the k-th retry
	// waits min(BackoffBase·2^(k−1), BackoffMax) plus deterministic
	// jitter (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MinWorkers delays the first dispatch until this many workers have
	// joined (default 1), so a fixed fleet's fault schedule is
	// reproducible instead of racing the joins.
	MinWorkers int
	// NoWorkerGrace bounds how long the coordinator waits with work
	// pending and ZERO connected workers before dead-lettering the rest
	// of the sweep (default 30s) — the no-hang guarantee even when the
	// whole fleet dies.
	NoWorkerGrace time.Duration
	// Observer receives coordinator lifecycle telemetry when set: worker
	// joins and losses, lease spans (issue to result/failure), expiries,
	// requeues, dead-letters, and per-worker heartbeat gaps. Telemetry is
	// a pure reader — it never influences scheduling, the report, or the
	// Outcome. nil (the default) records nothing.
	Observer *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.BatchSize < 1 {
		c.BatchSize = 8
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.RetryBudget < 1 {
		c.RetryBudget = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.MinWorkers < 1 {
		c.MinWorkers = 1
	}
	if c.NoWorkerGrace <= 0 {
		c.NoWorkerGrace = 30 * time.Second
	}
	return c
}

// backoffDelay computes the requeue delay before attempt number attempt
// (1-based count of attempts already failed): capped exponential backoff
// plus deterministic jitter derived from (batch, attempt), so retries of
// different batches spread out without a global RNG — and tests can
// predict the schedule exactly.
func (c Config) backoffDelay(batch, attempt int) time.Duration {
	delay := c.BackoffBase << (attempt - 1)
	if delay > c.BackoffMax || delay <= 0 {
		delay = c.BackoffMax
	}
	if quarter := delay / 4; quarter > 0 {
		h := fnv.New64a()
		var buf [16]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(batch >> (8 * i))
			buf[8+i] = byte(attempt >> (8 * i))
		}
		h.Write(buf[:])
		delay += time.Duration(h.Sum64() % uint64(quarter))
	}
	return delay
}

// Attempt is one entry of a batch's attempt log: which worker held the
// lease, how it failed, and when.
type Attempt struct {
	Worker    string    `json:"worker"`
	Err       string    `json:"err"`
	Start     time.Time `json:"start"`
	ElapsedMS int64     `json:"elapsed_ms"`
}

// Dead-letter reasons.
const (
	// ReasonBudget marks a batch that failed on every attempt the retry
	// budget allowed.
	ReasonBudget = "retry budget exhausted"
	// ReasonNoWorkers marks a batch parked because no worker was
	// connected for NoWorkerGrace.
	ReasonNoWorkers = "no workers available"
	// ReasonCanceled marks a batch drained during graceful shutdown.
	ReasonCanceled = "coordinator canceled"
)

// Result.Err values for instances the scheduler could not execute. They
// are fixed strings — never interpolated with workers, counts, or
// timings — so the partial report stays deterministic; the variable
// detail lives in the DeadLetter record.
const (
	// ErrDeadLettered marks instances parked after exhausting retries.
	ErrDeadLettered = "sched: dead-lettered (see DLQ for attempt log)"
	// ErrCanceled marks instances drained by a graceful shutdown.
	ErrCanceled = "sched: canceled before completion"
)

// DeadLetter is one parked batch: the instances it carried, why it was
// parked, and the full attempt log.
type DeadLetter struct {
	// Batch is the batch's ordinal in the partition order.
	Batch int `json:"batch"`
	// Instances are the expansion indices the batch carried.
	Instances []int `json:"instances"`
	// Groups are the distinct group keys of those instances, for
	// operators reading the DLQ without the spec at hand.
	Groups []string `json:"groups,omitempty"`
	// Reason is one of the Reason* constants.
	Reason string `json:"reason"`
	// Attempts is the complete attempt log, in order.
	Attempts []Attempt `json:"attempts,omitempty"`
}

// OutcomeSchema identifies the scheduler outcome JSON layout.
const OutcomeSchema = "fdsched/v1"

// Outcome is the scheduler's execution record: control-plane counters
// and the dead-letter queue. It rides NEXT TO the campaign report (the
// report itself stays a pure function of the Spec).
type Outcome struct {
	Schema string                `json:"schema"`
	Stats  metrics.SchedCounters `json:"stats"`
	DLQ    []DeadLetter          `json:"dlq,omitempty"`
}

package sched

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sched/faults"
	"repro/internal/sig"
	"repro/internal/transport"
)

// schedSpec is the sweep the scheduler tests run: two protocols, two
// adversaries, a dozen seeds — 48 instances, small enough for fault
// schedules with sub-second lease TTLs, large enough that batches
// actually migrate between workers.
func schedSpec() campaign.Spec {
	return campaign.Spec{
		Name:        "sched-sweep",
		Protocols:   []string{campaign.ProtoChain, campaign.ProtoNonAuth},
		Sizes:       []int{4},
		Schemes:     []string{sig.SchemeToy},
		Adversaries: []string{campaign.AdvNone, campaign.AdvCrashRelay},
		SeedBase:    11,
		SeedCount:   12,
	}
}

// workerSpec describes one test-fleet worker: its name and the fault
// behaviors stacked onto its link.
type workerSpec struct {
	name  string
	stack []faults.Behavior
}

// runDistributed executes spec through a coordinator with the given
// fleet over in-memory pipes and returns the report plus the scheduler
// outcome.
func runDistributed(t *testing.T, ctx context.Context, spec campaign.Spec, cfg Config, fleet []workerSpec) (*campaign.Report, Outcome) {
	t.Helper()
	coord := NewCoordinator(ctx, cfg)
	for _, w := range fleet {
		server, client := transport.Pipe()
		go coord.Attach(server)
		conn := client
		if len(w.stack) > 0 {
			conn = faults.Wrap(client, w.stack...)
		}
		go RunWorker(ctx, conn, WorkerConfig{Name: w.name})
	}
	rep, err := campaign.RunWith(spec, coord)
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	return rep, coord.Outcome()
}

// TestSchedulerReportInvarianceUnderFaults is the scheduler's
// determinism contract: a clean single-worker in-process run and a
// 4-worker leased run under each injected fault schedule — crash,
// stall, disconnect mid-result, corrupt result — must produce
// byte-identical canonical reports, with every instance recovered (an
// empty DLQ) and the fault demonstrably having fired.
func TestSchedulerReportInvarianceUnderFaults(t *testing.T) {
	spec := schedSpec()
	clean, err := campaign.Run(spec, 1)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	want, err := clean.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}

	cfg := Config{
		BatchSize:   4,
		LeaseTTL:    400 * time.Millisecond,
		RetryBudget: 5,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
		MinWorkers:  4,
	}
	for _, tc := range []struct {
		name  string
		fleet []workerSpec
		fired func(Outcome) bool
	}{
		{
			name: "no faults",
			fleet: []workerSpec{
				{name: "w1"}, {name: "w2"}, {name: "w3"}, {name: "w4"},
			},
			fired: func(o Outcome) bool { return o.Stats.BatchesCompleted == 12 },
		},
		// MinWorkers=4 gates the first dispatch wave until the whole fleet
		// joined, so every worker is guaranteed to receive its FIRST lease
		// — k=1 triggers therefore fire deterministically regardless of
		// how the later leases race.
		{
			name: "crash at batch",
			fleet: []workerSpec{
				{name: "w1", stack: []faults.Behavior{faults.CrashAtBatch(1)}},
				{name: "w2", stack: []faults.Behavior{faults.CrashAtBatch(1)}},
				{name: "w3"}, {name: "w4"},
			},
			fired: func(o Outcome) bool { return o.Stats.WorkersLost >= 2 },
		},
		{
			name: "stall past deadline",
			fleet: []workerSpec{
				{name: "w1", stack: []faults.Behavior{faults.StallAtBatch(1)}},
				{name: "w2"}, {name: "w3"}, {name: "w4"},
			},
			fired: func(o Outcome) bool { return o.Stats.LeasesExpired >= 1 },
		},
		{
			name: "disconnect mid-result",
			fleet: []workerSpec{
				{name: "w1", stack: []faults.Behavior{faults.DisconnectAtResult(1)}},
				{name: "w2", stack: []faults.Behavior{faults.DisconnectAtResult(1)}},
				{name: "w3"}, {name: "w4"},
			},
			fired: func(o Outcome) bool { return o.Stats.WorkersLost >= 2 },
		},
		{
			name: "corrupt result",
			fleet: []workerSpec{
				{name: "w1", stack: []faults.Behavior{faults.CorruptResultAt(1)}},
				{name: "w2", stack: []faults.Behavior{faults.CorruptResultAt(1)}},
				{name: "w3"}, {name: "w4"},
			},
			fired: func(o Outcome) bool { return o.Stats.CorruptResults >= 2 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, out := runDistributed(t, context.Background(), spec, cfg, tc.fleet)
			got, err := rep.CanonicalJSON()
			if err != nil {
				t.Fatalf("CanonicalJSON: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report diverged from clean single-worker run (%d vs %d bytes); stats: %s",
					len(got), len(want), out.Stats)
			}
			if len(out.DLQ) != 0 {
				t.Fatalf("recoverable fault schedule dead-lettered %d batches: %+v", len(out.DLQ), out.DLQ)
			}
			if !tc.fired(out) {
				t.Fatalf("fault schedule left no trace in the stats — the test proved nothing: %s", out.Stats)
			}
		})
	}
}

// TestDeadLetterOnBudgetExhaustion pins the DLQ contract: a batch no
// worker can ever deliver burns its whole retry budget, lands in the
// DLQ with a complete attempt log, and the sweep still completes with a
// valid report whose parked instances carry the fixed dead-letter
// error.
func TestDeadLetterOnBudgetExhaustion(t *testing.T) {
	spec := schedSpec()
	instances, err := campaign.Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	cfg := Config{
		BatchSize:   len(instances), // one batch: the whole sweep is doomed
		LeaseTTL:    2 * time.Second,
		RetryBudget: 3,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		MinWorkers:  2,
	}
	fleet := []workerSpec{
		{name: "bad1", stack: []faults.Behavior{faults.CorruptAllResults()}},
		{name: "bad2", stack: []faults.Behavior{faults.CorruptAllResults()}},
	}
	rep, out := runDistributed(t, context.Background(), spec, cfg, fleet)

	if len(out.DLQ) != 1 {
		t.Fatalf("DLQ has %d entries, want 1: %+v", len(out.DLQ), out.DLQ)
	}
	dl := out.DLQ[0]
	if dl.Reason != ReasonBudget {
		t.Errorf("reason = %q, want %q", dl.Reason, ReasonBudget)
	}
	if len(dl.Attempts) != cfg.RetryBudget {
		t.Fatalf("attempt log has %d entries, want the full budget %d: %+v",
			len(dl.Attempts), cfg.RetryBudget, dl.Attempts)
	}
	for i, a := range dl.Attempts {
		if a.Worker == "" || a.Err == "" || a.Start.IsZero() {
			t.Errorf("attempt %d incomplete: %+v", i, a)
		}
		if !strings.Contains(a.Err, "corrupt") && !strings.Contains(a.Err, "checksum") {
			t.Errorf("attempt %d error %q does not name the corruption", i, a.Err)
		}
	}
	// Both workers must appear: the excluded-worker set forced attempt 2
	// onto the other worker, and attempt 3 only ran because the scheduler
	// relaxed the exhausted exclusion rather than deadlocking.
	workers := map[string]bool{}
	for _, a := range dl.Attempts {
		workers[a.Worker] = true
	}
	if len(workers) != 2 {
		t.Errorf("attempt log covers workers %v, want both fleet members", workers)
	}
	if out.Stats.ExclusionsRelaxed < 1 {
		t.Errorf("expected at least one relaxed exclusion, stats: %s", out.Stats)
	}
	if len(dl.Instances) != len(instances) {
		t.Errorf("DLQ records %d instances, want %d", len(dl.Instances), len(instances))
	}
	if out.Stats.DeadLettered != len(instances) {
		t.Errorf("DeadLettered = %d, want %d", out.Stats.DeadLettered, len(instances))
	}
	// The report still assembles: every result present, positional, and
	// carrying the FIXED dead-letter error string (deterministic bytes).
	if rep.Instances != len(instances) || len(rep.Results) != len(instances) {
		t.Fatalf("report incomplete: %d/%d results", len(rep.Results), rep.Instances)
	}
	for i, res := range rep.Results {
		if res.Index != i || res.Err != ErrDeadLettered {
			t.Fatalf("result %d = {Index:%d Err:%q}, want dead-letter marker", i, res.Index, res.Err)
		}
	}
	if _, err := rep.CanonicalJSON(); err != nil {
		t.Fatalf("dead-lettered report does not marshal: %v", err)
	}
}

// TestRejectedBatchIsAFailedAttempt: a batch the worker's daemon
// refuses at admission (here one member asks for t = n) is a failed
// attempt like any other, counted as a NACK, and dead-lettered when the
// budget is spent; every other batch completes.
func TestRejectedBatchIsAFailedAttempt(t *testing.T) {
	instances, err := campaign.Expand(schedSpec())
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	instances[5].T = instances[5].N
	cfg := Config{
		BatchSize:   4,
		LeaseTTL:    2 * time.Second,
		RetryBudget: 2,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
	ctx := context.Background()
	coord := NewCoordinator(ctx, cfg)
	server, client := transport.Pipe()
	go coord.Attach(server)
	go RunWorker(ctx, client, WorkerConfig{Name: "w"})
	results, err := coord.Execute(instances)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	out := coord.Outcome()
	if out.Stats.Nacks != cfg.RetryBudget || len(out.DLQ) != 1 || out.DLQ[0].Batch != 1 || out.DLQ[0].Reason != ReasonBudget {
		t.Fatalf("stats %s, DLQ %+v: want %d NACKs and batch 1 dead-lettered", out.Stats, out.DLQ, cfg.RetryBudget)
	}
	for _, a := range out.DLQ[0].Attempts {
		if !strings.Contains(a.Err, "bad-request") {
			t.Errorf("attempt error %q does not name the rejection", a.Err)
		}
	}
	for i, res := range results {
		if inBatch := i >= 4 && i < 8; inBatch != (res.Err == ErrDeadLettered) {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
}

// TestExcludedWorkerRetriesElsewhere: one poisoned worker, one healthy
// one. Every batch the poisoned worker touches must retry on the
// healthy worker and the final report must match the clean run exactly.
func TestExcludedWorkerRetriesElsewhere(t *testing.T) {
	spec := schedSpec()
	clean, err := campaign.Run(spec, 1)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	want, _ := clean.CanonicalJSON()
	cfg := Config{
		BatchSize:   6,
		LeaseTTL:    2 * time.Second,
		RetryBudget: 4,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		MinWorkers:  2,
	}
	fleet := []workerSpec{
		{name: "poisoned", stack: []faults.Behavior{faults.CorruptAllResults()}},
		{name: "healthy"},
	}
	rep, out := runDistributed(t, context.Background(), spec, cfg, fleet)
	got, _ := rep.CanonicalJSON()
	if !bytes.Equal(got, want) {
		t.Fatalf("report diverged under a poisoned worker; stats: %s", out.Stats)
	}
	if len(out.DLQ) != 0 {
		t.Fatalf("healthy worker available, yet %d batches dead-lettered", len(out.DLQ))
	}
	if out.Stats.CorruptResults < 1 || out.Stats.Requeues < 1 {
		t.Fatalf("poisoned worker left no trace: %s", out.Stats)
	}
}

// TestGracefulDrainOnCancel: canceling the coordinator's context parks
// all unfinished batches with ReasonCanceled and Execute still returns
// a complete, marshalable partial report — the SIGINT path.
func TestGracefulDrainOnCancel(t *testing.T) {
	spec := schedSpec()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		BatchSize:  4,
		LeaseTTL:   30 * time.Second, // only cancel can end this run
		MinWorkers: 1,
	}
	// The lone worker goes zombie immediately: nothing will ever finish.
	fleet := []workerSpec{
		{name: "zombie", stack: []faults.Behavior{faults.StallAtBatch(1)}},
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	rep, out := runDistributed(t, ctx, spec, cfg, fleet)
	if len(out.DLQ) == 0 {
		t.Fatal("drain produced an empty DLQ")
	}
	for _, dl := range out.DLQ {
		if dl.Reason != ReasonCanceled {
			t.Errorf("DLQ reason = %q, want %q", dl.Reason, ReasonCanceled)
		}
	}
	for i, res := range rep.Results {
		if res.Err != ErrCanceled {
			t.Fatalf("result %d Err = %q, want %q", i, res.Err, ErrCanceled)
		}
	}
	if _, err := rep.CanonicalJSON(); err != nil {
		t.Fatalf("partial report does not marshal: %v", err)
	}
}

// TestNoWorkerGraceDeadLettersSweep: a coordinator whose fleet never
// shows up must not hang — after the grace period the whole sweep is
// parked with ReasonNoWorkers.
func TestNoWorkerGraceDeadLettersSweep(t *testing.T) {
	spec := schedSpec()
	cfg := Config{
		BatchSize:     8,
		NoWorkerGrace: 100 * time.Millisecond,
	}
	coord := NewCoordinator(context.Background(), cfg)
	start := time.Now()
	rep, err := campaign.RunWith(spec, coord)
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("no-worker sweep took %v; the grace period is 100ms", elapsed)
	}
	out := coord.Outcome()
	if len(out.DLQ) == 0 {
		t.Fatal("no-worker sweep produced an empty DLQ")
	}
	for _, dl := range out.DLQ {
		if dl.Reason != ReasonNoWorkers {
			t.Errorf("DLQ reason = %q, want %q", dl.Reason, ReasonNoWorkers)
		}
	}
	for i, res := range rep.Results {
		if res.Err != ErrDeadLettered {
			t.Fatalf("result %d Err = %q, want %q", i, res.Err, ErrDeadLettered)
		}
	}
}

// TestCoordinatorSingleUse: Execute is one campaign; a second call is
// refused rather than corrupting shared state.
func TestCoordinatorSingleUse(t *testing.T) {
	coord := NewCoordinator(context.Background(), Config{NoWorkerGrace: 50 * time.Millisecond})
	spec := campaign.Spec{
		Name:      "single-use",
		Protocols: []string{campaign.ProtoChain},
		Sizes:     []int{4},
		Schemes:   []string{sig.SchemeToy},
		SeedCount: 2,
	}
	if _, err := campaign.RunWith(spec, coord); err != nil {
		t.Fatalf("first Execute: %v", err)
	}
	if _, err := campaign.RunWith(spec, coord); err == nil {
		t.Fatal("second Execute on the same coordinator succeeded")
	}
}

// TestWorkerJoinsMidCampaign: the fleet may grow while the sweep runs;
// a late worker is adopted and the report is unchanged.
func TestWorkerJoinsMidCampaign(t *testing.T) {
	spec := schedSpec()
	clean, err := campaign.Run(spec, 1)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	want, _ := clean.CanonicalJSON()
	ctx := context.Background()
	cfg := Config{
		BatchSize:   4,
		LeaseTTL:    2 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		MinWorkers:  1,
	}
	coord := NewCoordinator(ctx, cfg)
	attach := func(name string) {
		server, client := transport.Pipe()
		go coord.Attach(server)
		go RunWorker(ctx, client, WorkerConfig{Name: name})
	}
	attach("early")
	go func() {
		time.Sleep(50 * time.Millisecond)
		attach("late")
	}()
	rep, err := campaign.RunWith(spec, coord)
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	got, _ := rep.CanonicalJSON()
	if !bytes.Equal(got, want) {
		t.Fatalf("report diverged with a mid-campaign join; stats: %s", coord.Outcome().Stats)
	}
}

func TestBackoffDelayDeterministicAndCapped(t *testing.T) {
	cfg := Config{BackoffBase: 50 * time.Millisecond, BackoffMax: 2 * time.Second}.withDefaults()
	if a, b := cfg.backoffDelay(3, 2), cfg.backoffDelay(3, 2); a != b {
		t.Fatalf("backoff not deterministic: %v vs %v", a, b)
	}
	if a, b := cfg.backoffDelay(3, 1), cfg.backoffDelay(4, 1); a == b {
		t.Fatalf("jitter did not separate batches: both %v", a)
	}
	for attempt := 1; attempt <= 20; attempt++ {
		d := cfg.backoffDelay(0, attempt)
		if d < cfg.BackoffBase || d > cfg.BackoffMax+cfg.BackoffMax/4 {
			t.Fatalf("attempt %d: delay %v outside [base, max+max/4]", attempt, d)
		}
	}
	// The exponential portion grows until the cap.
	if cfg.backoffDelay(0, 1) >= cfg.BackoffMax {
		t.Fatal("first retry already at cap")
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.BatchSize < 1 || c.LeaseTTL <= 0 || c.RetryBudget < 1 ||
		c.BackoffBase <= 0 || c.BackoffMax <= 0 || c.MinWorkers < 1 || c.NoWorkerGrace <= 0 {
		t.Fatalf("zero Config did not default every field: %+v", c)
	}
}

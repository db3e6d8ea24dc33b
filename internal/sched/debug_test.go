package sched

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sched/faults"
	"repro/internal/transport"
)

// TestCoordinatorTelemetryAndDebugSnapshot runs a clean two-worker
// campaign with an observer attached and checks the full telemetry
// surface: join points, balanced lease spans, the final snapshot, and
// the debug HTTP endpoints.
func TestCoordinatorTelemetryAndDebugSnapshot(t *testing.T) {
	sink := &obs.MemorySink{}
	rec := obs.NewRecorder(sink)
	cfg := Config{
		BatchSize:  4,
		LeaseTTL:   5 * time.Second,
		MinWorkers: 2, // both joins precede the first lease, so both are recorded
		Observer:   rec,
	}
	spec := schedSpec()
	ctx := context.Background()
	coord := NewCoordinator(ctx, cfg)
	fleet := []workerSpec{{name: "w1"}, {name: "w2"}}
	rep, outcome := runDistributedWith(t, ctx, spec, coord, fleet)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(outcome.DLQ) != 0 {
		t.Fatalf("clean run dead-lettered: %+v", outcome.DLQ)
	}

	if got := len(sink.Scoped("sched.worker.join")); got != 2 {
		t.Errorf("join points = %d, want 2", got)
	}
	leases := sink.Scoped("sched.lease")
	begins, ends := 0, 0
	for _, e := range leases {
		switch e.Kind {
		case obs.KindBegin:
			begins++
		case obs.KindEnd:
			ends++
			if !strings.Contains(e.Attrs, "outcome=ok") {
				t.Errorf("clean run lease ended %q", e.Attrs)
			}
			if e.Dur <= 0 {
				t.Errorf("lease span without duration: %+v", e)
			}
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("lease spans unbalanced: %d begins, %d ends", begins, ends)
	}
	if begins != outcome.Stats.LeasesIssued {
		t.Errorf("lease spans = %d, stats say %d leases issued", begins, outcome.Stats.LeasesIssued)
	}
	if got := len(sink.Scoped("sched.done")); got != 1 {
		t.Errorf("sched.done points = %d, want 1", got)
	}

	snap := coord.Debug()
	if snap.Schema != DebugSchema {
		t.Fatalf("snapshot schema = %q", snap.Schema)
	}
	if snap.Instances != rep.Instances {
		t.Errorf("snapshot instances = %d, report says %d", snap.Instances, rep.Instances)
	}
	if snap.Batches.Done == 0 || snap.Batches.Pending+snap.Batches.Inflight+snap.Batches.Dead != 0 {
		t.Errorf("final snapshot queue not drained: %+v", snap.Batches)
	}
	if snap.Stats != outcome.Stats {
		t.Errorf("snapshot stats %v != outcome stats %v", snap.Stats, outcome.Stats)
	}
	if len(snap.Workers) != 2 {
		t.Errorf("snapshot lists %d workers, want 2", len(snap.Workers))
	}
	// Every lease, result, and heartbeat crossed the counted worker
	// conns, so the aggregate wire stats must be non-zero (and redials
	// zero: pipes never dial).
	if snap.Conn.FramesSent == 0 || snap.Conn.FramesRecv == 0 ||
		snap.Conn.BytesSent == 0 || snap.Conn.BytesRecv == 0 {
		t.Errorf("snapshot conn stats empty: %+v", snap.Conn)
	}
	if snap.Conn.Redials != 0 {
		t.Errorf("pipe transport recorded %d redials", snap.Conn.Redials)
	}

	// The HTTP surface serves the same snapshot plus stdlib expvar/pprof.
	ts := httptest.NewServer(coord.DebugMux())
	defer ts.Close()
	var served DebugSnapshot
	body := httpGet(t, ts.URL+"/debug/sched")
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatalf("/debug/sched: %v\n%s", err, body)
	}
	if served.Schema != DebugSchema || served.Batches.Done != snap.Batches.Done {
		t.Errorf("/debug/sched served %+v, want %+v", served, snap)
	}
	if body := httpGet(t, ts.URL+"/debug/vars"); !strings.Contains(string(body), "memstats") {
		t.Error("/debug/vars missing expvar memstats")
	}
	httpGet(t, ts.URL+"/debug/pprof/cmdline")
}

// TestDrainTelemetryRecordsDeadLetters starves the coordinator of
// workers with a short grace so the whole sweep dead-letters, and
// checks the DLQ telemetry matches the outcome.
func TestDrainTelemetryRecordsDeadLetters(t *testing.T) {
	sink := &obs.MemorySink{}
	cfg := Config{
		BatchSize:     4,
		NoWorkerGrace: 30 * time.Millisecond,
		Observer:      obs.NewRecorder(sink),
	}
	coord := NewCoordinator(context.Background(), cfg)
	rep, err := campaign.RunWith(schedSpec(), coord)
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if err := cfg.Observer.Flush(); err != nil {
		t.Fatal(err)
	}
	outcome := coord.Outcome()
	if len(outcome.DLQ) == 0 {
		t.Fatal("starved run produced no dead letters")
	}
	dlqPoints := sink.Scoped("sched.dlq")
	if len(dlqPoints) != len(outcome.DLQ) {
		t.Errorf("%d sched.dlq points for %d DLQ entries", len(dlqPoints), len(outcome.DLQ))
	}
	snap := coord.Debug()
	if snap.Batches.Dead != len(outcome.DLQ) {
		t.Errorf("snapshot says %d dead batches, DLQ has %d", snap.Batches.Dead, len(outcome.DLQ))
	}
	if snap.Stats.DeadLettered != rep.Instances {
		t.Errorf("snapshot dead-lettered %d of %d instances", snap.Stats.DeadLettered, rep.Instances)
	}
}

// runDistributedWith is runDistributed over a caller-built coordinator
// (so tests can poke Debug and DebugMux afterwards).
func runDistributedWith(t *testing.T, ctx context.Context, spec campaign.Spec, coord *Coordinator, fleet []workerSpec) (*campaign.Report, Outcome) {
	t.Helper()
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

// httpGet fetches url and returns the body, failing the test on any
// error or non-200 status.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return body
}

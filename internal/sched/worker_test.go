package sched

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/protocol"
	"repro/internal/sig"
	"repro/internal/transport"
)

// panicDriver stands in for a driver bug on a worker.
type panicDriver struct{}

func (panicDriver) Name() string { return "test-sched-panic" }
func (panicDriver) Capabilities() protocol.Capabilities {
	return protocol.Capabilities{CacheableSetup: true}
}
func (panicDriver) Verdicts() protocol.VerdictMapper { return protocol.VerdictsAuthenticatedFD }
func (panicDriver) Prepare(protocol.Instance, *protocol.SetupCache) (protocol.Setup, error) {
	return nil, nil
}
func (panicDriver) Run(protocol.Instance, protocol.Setup) (protocol.Outcome, error) {
	panic("driver bug")
}

func init() { protocol.Register(panicDriver{}) }

// A driver that panics costs its own instance and nothing else: the
// lease comes back complete, with the fixed error in the panicking
// slot and clean verdicts around it, and the worker takes the next
// lease. (Uncontained, the worker process dies and the coordinator
// learns of it only when the lease expires.)
func TestWorkerContainsDriverPanic(t *testing.T) { workerContainsDriverPanic(t) }

// The same under -inst-timeout: the driver then runs on the campaign
// watchdog's goroutine, which RunWorker's recover cannot reach, so the
// executor has to contain the panic there — to the same Err.
func TestWatchdogContainsDriverPanic(t *testing.T) {
	workerContainsDriverPanic(t, campaign.WithInstanceTimeout(time.Minute))
}

func workerContainsDriverPanic(t *testing.T, opts ...campaign.Option) {
	chain, err := campaign.Expand(campaign.Spec{
		Protocols: []string{campaign.ProtoChain}, Sizes: []int{4}, Schemes: []string{sig.SchemeToy},
		SeedBase: 11, SeedCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := campaign.Instance{Index: 1, Protocol: "test-sched-panic", N: 4, T: 1, Scheme: sig.SchemeToy, Seed: 3, KeySeed: 1}

	coord, conn := transport.Pipe()
	done := make(chan error, 1)
	go func() { done <- RunWorker(context.Background(), conn, WorkerConfig{Name: "w", Options: opts}) }()
	if frame, err := coord.Recv(); err != nil || transport.FrameKind(frame) != KindHello {
		t.Fatalf("hello: kind %d, %v", transport.FrameKind(frame), err)
	}
	// lease sends one batch and returns the results the worker reports.
	lease := func(id int, batch ...campaign.Instance) []campaign.Result {
		t.Helper()
		payload, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Send(encodeLease(id, 1, 5000, payload)); err != nil {
			t.Fatalf("lease %d: %v", id, err)
		}
		for {
			frame, err := coord.Recv()
			if err != nil {
				t.Fatalf("lease %d: worker link lost: %v", id, err)
			}
			if transport.FrameKind(frame) == KindHeartbeat {
				continue
			}
			gotID, resPayload, err := transport.DecodePayload(frame, KindResult, "sched result")
			if err != nil || gotID != id {
				t.Fatalf("lease %d: got kind %d id %d, %v", id, transport.FrameKind(frame), gotID, err)
			}
			var results []campaign.Result
			if err := json.Unmarshal(resPayload, &results); err != nil {
				t.Fatal(err)
			}
			return results
		}
	}
	clean := func(res campaign.Result) bool { return res.Err == "" && res.Conformance.Conformant() }

	got := lease(1, chain[0], bad, chain[2])
	if len(got) != 3 || !clean(got[0]) || !clean(got[2]) {
		t.Fatalf("batch around the panic = %+v", got)
	}
	if got[1].Err != campaign.ErrDriverPanic || got[1].Conformance != nil || got[1].Index != 1 || got[1].Seed != 3 || got[1].Group != bad.GroupKey() {
		t.Fatalf("panicked instance = %+v, want Err %q at its own coordinates", got[1], campaign.ErrDriverPanic)
	}
	if next := lease(2, chain[1]); len(next) != 1 || !clean(next[0]) {
		t.Fatalf("lease after the panic = %+v", next)
	}

	if err := coord.Send(encodeShutdown("test over")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

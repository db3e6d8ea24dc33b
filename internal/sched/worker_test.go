package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/sig"
	"repro/internal/transport"
)

// panicDriver stands in for a driver bug on a worker. It signs, so it
// panics after a real handshake, over its cell's setup.
type panicDriver struct{}

func (panicDriver) Name() string { return "test-sched-panic" }
func (panicDriver) Capabilities() protocol.Capabilities {
	return protocol.Capabilities{UsesSignatures: true}
}
func (panicDriver) Verdicts() protocol.VerdictProfile { return protocol.VerdictsAuthenticatedFD }
func (panicDriver) Run(protocol.Instance, *core.Cluster) (protocol.Outcome, error) {
	panic("driver bug")
}

func init() { protocol.Register(panicDriver{}) }

// A driver that panics costs its own instance and nothing else: the
// batch comes back complete, with the fixed error in the panicking
// slot and clean verdicts around it, and the worker takes the next
// batch. (Uncontained, the worker process dies and the coordinator
// learns of it only when the lease expires.)
func TestWorkerContainsDriverPanic(t *testing.T) {
	workerContainsDriverPanic(t, func(conn transport.Conn) error {
		return RunWorker(context.Background(), conn, WorkerConfig{Name: "w"})
	})
}

// The same under -inst-timeout: the driver then runs on the campaign
// watchdog's goroutine, and the panic is contained there — to the same
// Err. The option reaches the worker as fdcampaign -worker passes it,
// through the daemon's executor.
func TestWatchdogContainsDriverPanic(t *testing.T) {
	workerContainsDriverPanic(t, func(conn transport.Conn) error {
		srv := service.NewServer(service.Config{Options: []campaign.Option{campaign.WithInstanceTimeout(time.Minute)}})
		defer srv.Drain()
		return srv.ServeDialled(context.Background(), conn, "w")
	})
}

// workerContainsDriverPanic plays the coordinator's side of the service
// frames against a worker that serve runs on the other end of a pipe.
func workerContainsDriverPanic(t *testing.T, serve func(transport.Conn) error) {
	chain, err := campaign.Expand(campaign.Spec{
		Protocols: []string{campaign.ProtoChain}, Sizes: []int{4}, Schemes: []string{sig.SchemeToy},
		SeedBase: 11, SeedCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := campaign.Instance{Index: 1, Protocol: "test-sched-panic", N: 4, T: 1, Scheme: sig.SchemeToy,
		Adversary: campaign.AdvNone, Seed: 3, KeySeed: 1}

	coord, conn := transport.Pipe()
	done := make(chan error, 1)
	go func() { done <- serve(conn) }()
	frame, err := coord.Recv()
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	if name, err := transport.DecodeHello(frame, service.KindHello, service.WireTag); err != nil || name != "w" {
		t.Fatalf("hello = %q, %v", name, err)
	}
	// lease sends one batch and returns the results the worker reports.
	lease := func(id int, batch ...campaign.Instance) []campaign.Result {
		t.Helper()
		frame, err := service.EncodeBatch(id, 5*time.Second, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Send(frame); err != nil {
			t.Fatalf("lease %d: %v", id, err)
		}
		for {
			frame, err := coord.Recv()
			if err != nil {
				t.Fatalf("lease %d: worker link lost: %v", id, err)
			}
			if transport.FrameKind(frame) == service.KindHeartbeat {
				continue
			}
			gotID, resPayload, err := transport.DecodePayload(frame, service.KindResult, "service result")
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

	// The coordinator closing the link is the worker's clean exit.
	coord.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// The in-process sweep contains a driver panic too, with no instance
// timeout armed: one instance reports campaign.ErrDriverPanic, the
// sweep completes, and its report is the same at one worker and two.
func TestLocalSweepContainsDriverPanic(t *testing.T) {
	spec := campaign.Spec{Name: "panic", Protocols: []string{campaign.ProtoChain, "test-sched-panic"},
		Sizes: []int{4}, Schemes: []string{sig.SchemeToy}, SeedBase: 1, SeedCount: 1}
	var reports [][]byte
	for _, workers := range []int{1, 2} {
		rep, err := campaign.Run(spec, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var failed []campaign.Result
		for _, res := range rep.Results {
			if res.Err != "" {
				failed = append(failed, res)
			}
		}
		if len(rep.Results) != 2 || len(failed) != 1 || failed[0].Err != campaign.ErrDriverPanic || failed[0].Conformance != nil {
			t.Fatalf("workers=%d: %d results, failed %+v, want 2 results and one %q with no verdict",
				workers, len(rep.Results), failed, campaign.ErrDriverPanic)
		}
		data, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("the report differs between one worker and two")
	}
}

package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestWorkerTraceHasRequestSpans: a worker's -trace-out recorder, passed
// once as the server's Recorder, reaches the agreement-service session it
// serves leases on and that session's executor, so its trace holds a
// service.request span per leased instance beside its campaign.instance
// span.
func TestWorkerTraceHasRequestSpans(t *testing.T) {
	listener, err := transport.ListenConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{Name: "worker-trace", Protocols: []string{campaign.ProtoChain}, Sizes: []int{4},
		Schemes: []string{"toy"}, Adversaries: []string{campaign.AdvNone}, NetConds: []string{"ideal"}, SeedCount: 6}
	instances, err := campaign.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	type coordinated struct {
		report *campaign.Report
		err    error
	}
	done := make(chan coordinated, 1)
	go func() {
		report, _, err := coordinate(context.Background(), distFlags{expect: 1, batch: 2, lease: 5 * time.Second}, spec, listener)
		done <- coordinated{report, err}
	}()

	sink := &obs.MemorySink{}
	rec := obs.NewRecorder(sink)
	df := distFlags{worker: listener.Addr(), workerName: "traced", observer: rec}
	if code := runWorkerMode(context.Background(), df, nil); code != 0 {
		t.Fatalf("worker exited %d", code)
	}
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if len(got.report.Results) != len(instances) {
		t.Fatalf("coordinator reported %d results, want %d", len(got.report.Results), len(instances))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	ended := func(scope string) int {
		n := 0
		for _, e := range sink.Scoped(scope) {
			if e.Kind == obs.KindEnd {
				n++
			}
		}
		return n
	}
	for _, scope := range []string{"service.request", "campaign.instance"} {
		if got := ended(scope); got != len(instances) {
			t.Errorf("the worker's trace has %d %s spans, want one per instance (%d)", got, scope, len(instances))
		}
	}
}

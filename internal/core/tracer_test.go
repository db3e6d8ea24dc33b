package core

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestClusterTracerIsAPureReader checks WithTracer end to end: the
// tracer sees every delivery of both lifecycle phases, and the traced
// cluster reports exactly what the bare one does.
func TestClusterTracerIsAPureReader(t *testing.T) {
	cfg := model.Config{N: 4, T: 1}
	run := func(opts ...Option) (setup, fdrun Report) {
		c, err := New(cfg, append(opts, WithSeed(7))...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if setup, err = c.EstablishAuthentication(); err != nil {
			t.Fatalf("EstablishAuthentication: %v", err)
		}
		if fdrun, err = c.RunFailureDiscovery([]byte("v")); err != nil {
			t.Fatalf("RunFailureDiscovery: %v", err)
		}
		return setup, fdrun
	}
	bareSetup, bareRun := run()
	tracer := &sim.RecordingTracer{}
	setup, fdrun := run(WithTracer(tracer))

	if !reflect.DeepEqual(setup, bareSetup) {
		t.Errorf("traced setup report %v, bare %v", setup, bareSetup)
	}
	if !reflect.DeepEqual(fdrun, bareRun) {
		t.Errorf("traced run report %v, bare %v", fdrun, bareRun)
	}
	// Every sent message is delivered on the ideal network, so the
	// tracer sees one delivery per message of both phases.
	want := setup.Snapshot.Messages + fdrun.Snapshot.Messages
	if got := len(tracer.Messages()); got != want {
		t.Errorf("tracer saw %d deliveries, the two phases sent %d", got, want)
	}
}

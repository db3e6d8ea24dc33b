package campaign

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sig"
)

// TestReportObserverInvariance is the observability half of the campaign
// determinism contract: attaching a structured-event recorder must not
// change a single report byte. Tracing is a pure reader — wall-clock
// timing, cache outcomes, and worker placement live only in the trace,
// never in the report.
func TestReportObserverInvariance(t *testing.T) {
	spec := Spec{
		Name:        "observer-differential",
		Protocols:   []string{ProtoChain, ProtoVector, ProtoSM},
		Sizes:       []int{4, 5},
		Schemes:     []string{sig.SchemeToy},
		Adversaries: []string{AdvNone, AdvCrashRelay},
		SeedBase:    31,
		SeedCount:   3,
	}
	plain, err := Run(spec, 2)
	if err != nil {
		t.Fatalf("Run(no observer): %v", err)
	}
	sink := &obs.MemorySink{}
	rec := obs.NewRecorder(sink)
	observed, err := Run(spec, 2, WithObserver(rec))
	if err != nil {
		t.Fatalf("Run(observer): %v", err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	jPlain, err := plain.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	jObserved, err := observed.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	if !bytes.Equal(jPlain, jObserved) {
		t.Fatal("report bytes differ with an observer attached; tracing is no longer a pure reader")
	}

	// The trace must be real, not vacuous: one begin/end span pair per
	// instance, every verdict ok, and each instance's own setup lookup —
	// the two workers share one store, so exactly one instance per
	// (scheme, n) cell built it and every other was served by that build.
	spans := sink.Scoped("campaign.instance")
	if got, want := len(spans), 2*observed.Instances; got != want {
		t.Fatalf("trace has %d campaign.instance events, want %d (begin+end per instance)", got, want)
	}
	hits, misses, served := 0, 0, 0
	for _, e := range spans {
		if e.Kind != obs.KindEnd {
			continue
		}
		if !strings.Contains(e.Attrs, "verdict=ok") {
			t.Errorf("instance %d end attrs %q missing verdict=ok", e.Inst, e.Attrs)
		}
		if e.Dur <= 0 {
			t.Errorf("instance %d span has non-positive duration %d", e.Inst, e.Dur)
		}
		switch {
		case strings.Contains(e.Attrs, "cache=hit"):
			hits++
			served++
		case strings.Contains(e.Attrs, "cache=wait"):
			served++
		case strings.Contains(e.Attrs, "cache=miss"):
			misses++
		default:
			t.Errorf("instance %d end attrs %q name no setup lookup", e.Inst, e.Attrs)
		}
	}
	if hits == 0 {
		t.Error("no instance recorded a setup-cache hit; cache attribution is broken or the sweep never warmed")
	}
	if cells := len(spec.Sizes); misses != cells || served != observed.Instances-cells {
		t.Errorf("trace attributes %d builds and %d served lookups; want %d (one per cell) and %d",
			misses, served, cells, observed.Instances-cells)
	}
}

// TestExecutorObserverDisabledIsDefault pins the disabled path: an
// executor without an observer runs instances through a nil recorder
// (one nil check, no events), and a nil recorder passed explicitly
// behaves the same.
func TestExecutorObserverDisabledIsDefault(t *testing.T) {
	if NewExecutor().rec.Enabled() {
		t.Fatal("default executor has an enabled recorder")
	}
	if NewExecutor(WithObserver(nil)).rec.Enabled() {
		t.Fatal("WithObserver(nil) enabled recording")
	}
}

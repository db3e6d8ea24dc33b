package campaign

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// runOnEngine runs one instance through its driver over a cluster built
// on engine (nil: the simulator) — setup included, so key distribution
// crosses the same engine as the run.
func runOnEngine(t *testing.T, inst Instance, engine core.Engine) protocol.Outcome {
	t.Helper()
	drv, pinst, err := inst.resolve()
	if err != nil {
		t.Fatalf("%s: resolve: %v", inst.GroupKey(), err)
	}
	opts := []core.Option{core.WithSeed(pinst.Seed), core.WithKeySeed(pinst.KeySeed), core.WithEngine(engine)}
	if pinst.Scheme != "" {
		opts = append(opts, core.WithScheme(pinst.Scheme))
	}
	c, err := core.New(pinst.Config(), opts...)
	if err != nil {
		t.Fatalf("%s: core.New: %v", inst.GroupKey(), err)
	}
	if drv.Capabilities().UsesSignatures {
		if _, err := c.EstablishAuthentication(); err != nil {
			t.Fatalf("%s: establish: %v", inst.GroupKey(), err)
		}
	}
	out, err := drv.Run(pinst, c)
	if err != nil {
		t.Fatalf("%s seed %d: run: %v", inst.GroupKey(), inst.Seed, err)
	}
	return out
}

// TestEnginesAgreeOnGoldenWiringSpec is the one-runner claim: every
// instance of the committed wiring grid — 7 drivers × {none,
// equivocating coalition, delay+tamper} × {ideal, churn, loss+latency,
// healing partition} × n∈{7,10} × 2 seeds — yields the same
// protocol.Outcome (rounds, traffic snapshot, every node's outcome) on
// the lockstep simulator and on the mesh engine's goroutine-per-node
// runners, and one instance per driver does over TCP loopback sockets.
func TestEnginesAgreeOnGoldenWiringSpec(t *testing.T) {
	spec, err := LoadSpec("testdata/golden_wiring_spec.json")
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	instances, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(instances) != 294 {
		t.Fatalf("golden wiring spec expands to %d instances, want 294", len(instances))
	}
	overTCP := make(map[string]bool)
	for _, inst := range instances {
		want := runOnEngine(t, inst, nil)
		got := runOnEngine(t, inst, transport.MeshEngine(transport.NewMemoryMesh(inst.N).Endpoints()))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s seed %d: memory mesh departs from the simulator\n sim:  %+v\n mesh: %+v", inst.GroupKey(), inst.Seed, want, got)
		}
		// The last instance of each driver is its hardest cell: n=10,
		// delay+tamper under a healing partition.
		if next := inst.Index + 1; next < len(instances) && instances[next].Protocol == inst.Protocol {
			continue
		}
		overTCP[inst.Protocol] = true
		lb, err := transport.BootLoopback(context.Background(), inst.N)
		if err != nil {
			t.Fatalf("BootLoopback: %v", err)
		}
		got = runOnEngine(t, inst, transport.MeshEngine(lb.Endpoints))
		lb.Close()
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s seed %d: TCP loopback departs from the simulator\n sim: %+v\n tcp: %+v", inst.GroupKey(), inst.Seed, want, got)
		}
	}
	if len(overTCP) != len(spec.Protocols) {
		t.Errorf("TCP loopback covered %d drivers, want %d", len(overTCP), len(spec.Protocols))
	}
}

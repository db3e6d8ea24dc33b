package campaign

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
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
		setup, err := protocol.SetupOptions(pinst)
		if err != nil {
			t.Fatalf("%s: setup: %v", inst.GroupKey(), err)
		}
		if _, err := c.EstablishAuthentication(setup...); err != nil {
			t.Fatalf("%s: establish: %v", inst.GroupKey(), err)
		}
	}
	out, err := drv.Run(pinst, c)
	if err != nil {
		t.Fatalf("%s seed %d: run: %v", inst.GroupKey(), inst.Seed, err)
	}
	return out
}

// runOnMeshes is runOnEngine over meshes, which it closes when the run
// ends.
func runOnMeshes(t *testing.T, inst Instance, meshes []*transport.Mesh) protocol.Outcome {
	t.Helper()
	defer closeMeshes(meshes)
	return runOnEngine(t, inst, transport.MeshEngine(meshes))
}

// closeMeshes closes every node's mesh.
func closeMeshes(meshes []*transport.Mesh) {
	for _, m := range meshes {
		m.Close()
	}
}

// TestEnginesAgreeOnGoldenWiringSpec is the one-runner claim: every
// instance of the committed wiring grid — 7 drivers × {none,
// equivocating coalition, delay+tamper} × {ideal, churn, loss+latency,
// healing partition} × n∈{7,10} × 2 seeds — yields the same
// protocol.Outcome (rounds, traffic snapshot, every node's outcome) on
// the lockstep simulator and on the mesh engine's goroutine-per-node
// runners, and one instance per driver does over TCP loopback sockets.
func TestEnginesAgreeOnGoldenWiringSpec(t *testing.T) {
	enginesAgreeOn(t, "testdata/golden_wiring_spec.json", 294)
}

// TestEnginesAgreeOnSetupWiringSpec is the same claim with key
// distribution corrupted: the five signing drivers × the five setup=
// attacks × n=7 × 2 seeds, each instance's setup (SetupOptions) crossing
// the same engine as its run.
func TestEnginesAgreeOnSetupWiringSpec(t *testing.T) {
	enginesAgreeOn(t, "testdata/setup_wiring_spec.json", 50)
}

// enginesAgreeOn runs every instance of the spec at path, which must
// expand to count, on the simulator and the memory mesh, and the last
// instance of each driver over TCP loopback too.
func enginesAgreeOn(t *testing.T, path string, count int) {
	spec, err := LoadSpec(path)
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	instances, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(instances) != count {
		t.Fatalf("%s expands to %d instances, want %d", path, len(instances), count)
	}
	overTCP := make(map[string]bool)
	for _, inst := range instances {
		want := runOnEngine(t, inst, nil)
		got := runOnMeshes(t, inst, transport.NewMemoryMesh(inst.N))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s seed %d: memory mesh departs from the simulator\n sim:  %+v\n mesh: %+v", inst.GroupKey(), inst.Seed, want, got)
		}
		// The last instance of each driver is its hardest cell.
		if next := inst.Index + 1; next < len(instances) && instances[next].Protocol == inst.Protocol {
			continue
		}
		overTCP[inst.Protocol] = true
		lb, err := transport.BootLoopback(context.Background(), inst.N)
		if err != nil {
			t.Fatalf("BootLoopback: %v", err)
		}
		got = runOnMeshes(t, inst, lb.Meshes)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s seed %d: TCP loopback departs from the simulator\n sim: %+v\n tcp: %+v", inst.GroupKey(), inst.Seed, want, got)
		}
	}
	if len(overTCP) != len(spec.Protocols) {
		t.Errorf("TCP loopback covered %d drivers, want %d", len(overTCP), len(spec.Protocols))
	}
}

// TestFreshKeySetIsFreshMemo: the verify memo belongs to the key set a
// handshake builds. Two clusters of one key seed sign identical chains,
// yet each pays exactly the t+1 predicate tests of a failure-free chain
// run, and a second run of the same value on either pays none — on the
// simulator and on the memory mesh's goroutine-per-node runners.
func TestFreshKeySetIsFreshMemo(t *testing.T) {
	cfg := model.Config{N: 8, T: 2}
	for _, kind := range []string{"sim", "memory"} {
		for cluster := 1; cluster <= 2; cluster++ {
			var engine core.Engine
			if kind == "memory" {
				meshes := transport.NewMemoryMesh(cfg.N)
				defer closeMeshes(meshes)
				engine = transport.MeshEngine(meshes)
			}
			c, err := core.New(cfg, core.WithSeed(7), core.WithScheme(countedEd25519.Name()), core.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.EstablishAuthentication(); err != nil {
				t.Fatal(err)
			}
			for run, want := range []int64{int64(cfg.T + 1), 0} {
				countedEd25519.tests.Store(0)
				if _, err := c.RunFailureDiscovery([]byte("one value")); err != nil {
					t.Fatal(err)
				}
				if got := countedEd25519.tests.Load(); got != want {
					t.Errorf("%s, cluster %d, run %d: %d predicate tests, want %d", kind, cluster, run+1, got, want)
				}
			}
		}
	}
}

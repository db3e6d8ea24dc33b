package campaign

import (
	"runtime/debug"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sig"
)

// TestInstanceAllocs pins what one campaign instance allocates, through
// the path a sweep's worker takes (RunInstanceWith over a warm setup
// cache): a vector run at n=16 t=5 under crash-relay on a lossy network,
// the grid cell where link streams and discoveries are most numerous.
// It was 1,027 while every opened link built a rand.Rand and its source
// (up to 240 links), every discovery formatted its detail text eagerly
// and the vector proposals were formatted twice per node. A link's
// stream is now a slot of the link table, a discovery formats on read,
// and the proposals are built once per instance: 527. A chain is a value
// and a seat keeps its accepted value where the chain holds it: 476 (no
// header per parse, extend or signing, no copy per decision). The
// collector is off, as in core.TestFDRunAllocs: a cycle empties the
// engine's pools, and the warm-up runs fill them.
func TestInstanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	inst := Instance{Protocol: ProtoVector, N: 16, T: 5, Scheme: sig.SchemeHMAC, Adversary: AdvCrashRelay,
		NetCond: "latency=uniform-0-2,loss=0.05", Seed: 7, KeySeed: 1}
	cache := protocol.NewSetupCache(0)
	run := func() {
		if res := RunInstanceWith(inst, cache); res.Err != "" || !res.Discovered {
			t.Fatalf("instance: err %q, discovered %v; the pin needs a run with discoveries", res.Err, res.Discovered)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(20, run); allocs > 476 {
		t.Errorf("a lossy crash-relay vector instance at n=16 t=5 allocates %.0f times, pin is 476", allocs)
	}
}

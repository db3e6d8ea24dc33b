package campaign

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sig"
	"repro/internal/sim"
)

// outcomeOf runs inst through its driver and returns the protocol-level
// outcome, traffic snapshot included.
func outcomeOf(t *testing.T, inst Instance, cache *protocol.SetupCache) protocol.Outcome {
	t.Helper()
	drv, pinst, err := inst.resolve()
	if err != nil {
		t.Fatalf("%s: resolve: %v", inst.GroupKey(), err)
	}
	out, err := protocol.RunInstance(drv, pinst, cache)
	if err != nil {
		t.Fatalf("%s seed %d: %v", inst.GroupKey(), inst.Seed, err)
	}
	return out
}

// TestEIGReportsEqualAtAnyGOMAXPROCS: OM(t) instances whose final round
// crosses sim.ParallelRoundBytes — so the engine steps it on every core
// it has — produce byte-identical results at GOMAXPROCS 1 and 2: the
// eig_grid workload's three shapes, honest and two-faced.
func TestEIGReportsEqualAtAnyGOMAXPROCS(t *testing.T) {
	for _, inst := range []Instance{
		{Protocol: ProtoEIG, N: 16, T: 3, Adversary: AdvNone, Seed: 11, KeySeed: 11},
		{Protocol: ProtoEIG, N: 16, T: 3, Adversary: AdvEquivocate, Seed: 12, KeySeed: 12},
		{Protocol: ProtoEIG, N: 64, T: 2, Adversary: AdvNone, Seed: 13, KeySeed: 13},
	} {
		if got := outcomeOf(t, inst, nil).Snapshot.MaxRoundBytes; got < sim.ParallelRoundBytes {
			t.Fatalf("%s: largest round %d bytes never reaches the parallel path", inst.GroupKey(), got)
		}
		var reports [2][]byte
		for i, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			res := RunInstance(inst)
			runtime.GOMAXPROCS(prev)
			if res.Err != "" || !res.Agreed {
				t.Fatalf("%s at GOMAXPROCS %d: err %q, agreed %v", inst.GroupKey(), procs, res.Err, res.Agreed)
			}
			var err error
			if reports[i], err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(reports[0], reports[1]) {
			t.Errorf("%s: result differs between GOMAXPROCS 1 and 2\n 1: %s\n 2: %s", inst.GroupKey(), reports[0], reports[1])
		}
	}
}

// TestSignedRoundsStayUnderParallelThreshold pins the margin that keeps
// the campaign_grid and serve workloads on the engine's serial path: at
// n=16 t=5, every signed protocol of the benchmark grid, under each of
// its adversaries and network conditions and both schemes, sends under a
// quarter of sim.ParallelRoundBytes in every round (what a round sends
// bounds what the next one delivers).
func TestSignedRoundsStayUnderParallelThreshold(t *testing.T) {
	spec := benchmarkGridSweep0(sig.SchemeEd25519, sig.SchemeHMAC)
	spec.Cases = []Case{{N: 16, T: 5}}
	spec.SeedCount = 1
	instances, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	cache := protocol.NewSetupCache(0)
	largest := make(map[string]int)
	for _, inst := range instances {
		got := outcomeOf(t, inst, cache).Snapshot.MaxRoundBytes
		if got >= sim.ParallelRoundBytes/4 {
			t.Errorf("%s: a round sends %d bytes, a quarter of the parallel threshold is %d",
				inst.GroupKey(), got, sim.ParallelRoundBytes/4)
		}
		largest[inst.Protocol] = max(largest[inst.Protocol], got)
	}
	t.Logf("largest round per protocol, bytes: %v", largest)
}

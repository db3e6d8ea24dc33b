package core_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sig"
)

// fdRunFixture is an established n=16, t=5 cluster and a run that
// carries a fresh value each call: real runs do, and a fixed value would
// let every run after the first ride the verified-signature memo and
// stop measuring verification at all. Within one run, receivers
// re-verifying layers an earlier hop verified DO hit the memo — the
// simulator's nodes share a process, as they do in every sim-backed
// deployment here; a cluster of separate OS processes would pay more.
func fdRunFixture(tb testing.TB) (run func()) {
	tb.Helper()
	c, err := core.New(model.Config{N: 16, T: 5}, core.WithSeed(1))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.EstablishAuthentication(); err != nil {
		tb.Fatal(err)
	}
	i := 0
	return func() {
		i++
		if _, err := c.RunFailureDiscovery([]byte(fmt.Sprintf("value-%d", i))); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkFDRun measures one failure-free authenticated chain run.
func BenchmarkFDRun(b *testing.B) {
	run := fdRunFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestFDRunAllocs pins the run's allocation count as an upper bound.
// 221 is the steady state (the value's Sprintf included); it read 409
// from PR 10 until PR 22 took out what the engine allocated per node per
// round — a view copy nobody read and a reflective sort's closure and
// swapper — and the nested-encoding copy per verified chain. The 200 runs
// counted here start from an empty verify memo, so that a rerun cannot
// ride the previous one's entries; its shard maps growing back adds 0.9
// per run, and the average truncates to 221 or 222. The collector is off
// because a cycle empties the sync.Pools, and the few runs before the
// count fill them.
func TestFDRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	run := fdRunFixture(t)
	for i := 0; i < 3; i++ {
		run()
	}
	sig.ResetVerifyMemo()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(200, run); allocs > 222 {
		t.Errorf("a chain run at n=16, t=5 allocates %.0f times, pin is 222", allocs)
	}
}

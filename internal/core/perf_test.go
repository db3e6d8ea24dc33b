package core_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// fdRunFixture is an established n=16, t=5 cluster and a run that
// carries a fresh value each call: real runs do, and a fixed value would
// let every run after the first ride the verified-signature memo and
// stop measuring verification at all. Within one run, receivers
// re-verifying layers an earlier hop verified DO hit the memo — the
// cluster's n directories share their handshake's memo, as they do on
// every engine here; a cluster of separate OS processes would pay more.
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
// 104 is the steady state (the value's Sprintf included). It read 409
// until the engine stopped allocating per node per round (a view copy
// nobody read, a reflective sort's closure and swapper) and Verify
// stopped copying the nested encoding into each chain it accepted; 221
// until the engine borrowed its inboxes from a pool and counted into
// slices instead of maps; 198 until a chain became its wire encoding
// (parse 4 → 2 allocations, extend 6 → 3, and each node's signers in one
// buffer it keeps, where every Verify grew a fresh slice); 141 until a
// chain became a value (no header per parse, extend or signing) and a
// node kept its accepted value where the chain holds it. The fixture's
// cluster brings its own verify memo, so
// no other test's entries reach the count, and each run stores its
// t+1 = 6 prefixes there: the 1,200 stored over the 200 counted runs
// make each of the 16 shards build a generation map about three times
// (3 allocations each), 0.72 per run; the mean truncates to 104. The
// collector is off because a cycle empties the sync.Pools, and the few
// runs before the count fill them.
func TestFDRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	run := fdRunFixture(t)
	for i := 0; i < 3; i++ {
		run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(200, run); allocs > 105 {
		t.Errorf("a chain run at n=16, t=5 allocates %.0f times, pin is 105", allocs)
	}
}

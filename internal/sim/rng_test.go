package sim

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// math/rand is the reference for SeededSource and appears only here:
// every value drawn through rand.New must equal the one
// rand.New(rand.NewSource(seed)) yields at the same position.

// drawBoth makes draw number i on both generators with the method the
// position selects and reports the two results as comparable bits.
func drawBoth(got, want *rand.Rand, i int) (g, w uint64, method string) {
	switch i % 5 {
	case 0:
		return got.Uint64(), want.Uint64(), "Uint64"
	case 1:
		return uint64(got.Int63()), uint64(want.Int63()), "Int63"
	case 2:
		return math.Float64bits(got.Float64()), math.Float64bits(want.Float64()), "Float64"
	case 3:
		return uint64(got.Intn(3)), uint64(want.Intn(3)), "Intn(3)"
	default:
		// NormFloat64 retries a data-dependent number of times, so the
		// interleaving also walks the two sources across rngTap at
		// positions that differ from seed to seed.
		return math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64()), "NormFloat64"
	}
}

func checkSeededSource(t *testing.T, seed int64, draws int) {
	t.Helper()
	got := rand.New(SeededSource(seed))
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		if g, w, method := drawBoth(got, want, i); g != w {
			t.Fatalf("seed %d draw %d (%s): got %#x, math/rand gives %#x", seed, i, method, g, w)
		}
	}
}

func TestSeededSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, -2, seedM - 1, seedM, seedM + 1, -seedM, 2 * seedM,
		1 << 31, -(1 << 31), 1<<32 - 1, 89482311, -89482311,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	for i := 0; len(seeds) < 256; i++ {
		seeds = append(seeds, NodeSeed(1995, i))
	}
	for _, seed := range seeds {
		checkSeededSource(t, seed, 800)
	}
}

// TestSeededSourceRawBoundary compares the bare sources output by
// output across the hand-over at rngTap, and a reseed on either side
// of it.
func TestSeededSourceRawBoundary(t *testing.T) {
	got, want := SeededSource(42), rand.NewSource(42).(rand.Source64)
	for _, leg := range []struct {
		seed  int64
		draws int
	}{{42, rngTap - 1}, {7, rngTap}, {7, rngTap + 1}, {-3, 2 * rngLen}, {-3, 3}} {
		got.Seed(leg.seed)
		want.Seed(leg.seed)
		for k := 1; k <= leg.draws; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d output %d: got %#x, math/rand gives %#x", leg.seed, k, g, w)
			}
		}
	}
}

func FuzzSeededSource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, seedM, 1 << 31, 89482311, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(2))
		f.Add(seed, uint16(rngTap+3))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkSeededSource(t, seed, int(draws))
	})
}

// readSeeded is one node's entropy stream as cluster setup builds it
// (two per node): construct, read 32 bytes.
func readSeeded(seed int64, buf *[32]byte) {
	if _, err := SeededReader(seed).Read(buf[:]); err != nil {
		panic(err)
	}
}

func BenchmarkSeededReader(b *testing.B) {
	var buf [32]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		readSeeded(int64(i), &buf)
	}
}

// TestSeededReaderAllocs pins what a stream costs to open: one 24-byte
// allocation — the lazy source itself; rand.Rand and the reader around
// it stay on the stack. math/rand's own source was a 4.9 KB register.
// Bytes are read from MemStats, which counts the whole process, so the
// collector is off and the least of three batches is taken.
func TestSeededReaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var buf [32]byte
	seed := int64(0)
	read := func() { seed++; readSeeded(seed, &buf) }
	if allocs := testing.AllocsPerRun(200, read); allocs != 1 {
		t.Errorf("a 32-byte seeded read allocates %.1f times, pin is 1", allocs)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const batch = 1000
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for r := 0; r < 3; r++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < batch; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/batch)
	}
	if least != 24 {
		t.Errorf("a 32-byte seeded read allocates %d B, pin is 24", least)
	}
}

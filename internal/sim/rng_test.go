package sim

import (
	"math"
	"math/rand"
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

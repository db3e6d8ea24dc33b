package netcond

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// oracleLink is the reference for one directed link: math/rand's own
// seeded generator on the link's NetLinkSeed, drawn in the documented
// order — loss, latency, reorder — with the bandwidth window on top.
// Model.Fate must agree with it message for message; it is what pins
// the fates in every committed report to math/rand.
type oracleLink struct {
	rng               *rand.Rand
	wndRound, wndUsed int
}

func (l *oracleLink) fate(spec Spec, round int) int {
	if spec.Loss > 0 && l.rng.Float64() < spec.Loss {
		return sim.Drop
	}
	d := 0
	if lat := spec.Latency; lat != nil {
		switch lat.Dist {
		case DistFixed:
			d = lat.Rounds
		case DistUniform:
			d = lat.Min + l.rng.Intn(lat.Max-lat.Min+1)
		case DistLognormal:
			limit := lat.Cap
			if limit == 0 {
				limit = defaultLognormalCap
			}
			d = min(int(math.Exp(lat.Mu+lat.Sigma*l.rng.NormFloat64())), limit)
		}
	}
	if spec.Reorder > 0 && l.rng.Float64() < spec.Reorder {
		d++
	}
	if spec.Bandwidth > 0 {
		if l.wndRound != round {
			l.wndRound, l.wndUsed = round, 0
		}
		l.wndUsed++
		d += (l.wndUsed - 1) / spec.Bandwidth
	}
	return d
}

func TestModelFatesMatchMathRandOracle(t *testing.T) {
	const (
		n        = 16
		perLink  = 300 // crosses the stream's 273-output hand-over on every spec
		perRound = 4   // messages per link per round, so bandwidth caps bite
		seed     = 1995
	)
	for _, text := range []string{
		"latency=uniform-0-2,loss=0.05",
		"latency=lognormal-0.5-0.3-6,reorder=0.2,loss=0.1",
		"latency=uniform-0-1,loss=0.05,bandwidth=2",
	} {
		spec, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		m := NewModel(spec, n, seed)
		var links [n][n]oracleLink
		fates := map[int]bool{}
		for i := 0; i < perLink; i++ {
			round := 1 + i/perRound
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if from == to {
						continue
					}
					l := &links[from][to]
					if l.rng == nil {
						l.rng = rand.New(rand.NewSource(sim.NetLinkSeed(seed, from, to)))
					}
					msg := model.Message{From: model.NodeID(from), To: model.NodeID(to), Kind: model.KindPlainValue}
					got, want := m.Fate(msg, round), l.fate(spec, round)
					if got != want {
						t.Fatalf("%s: link %d→%d message %d: fate %d, math/rand oracle says %d", text, from, to, i, got, want)
					}
					fates[got] = true
				}
			}
		}
		if len(fates) < 3 {
			t.Errorf("%s: only fates %v seen — the spec exercises too little", text, fates)
		}
	}
}

// openLinks is what a lossy instance pays to open its links: NewModel
// plus one lossy, uniform-latency Fate on each of the n(n−1) directed
// links, whose first draw builds the link's seeded stream. This is the
// netcond share of every link-degrading cell in a campaign grid, where
// most links carry one or two messages per run.
func openLinks(n int, seed int64) {
	m := NewModel(Spec{Latency: &LatencySpec{Dist: DistUniform, Min: 0, Max: 2}, Loss: 0.05}, n, seed)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from != to {
				m.Fate(model.Message{From: model.NodeID(from), To: model.NodeID(to)}, 1)
			}
		}
	}
}

// BenchmarkNetcondFates times openLinks at n=16.
func BenchmarkNetcondFates(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		openLinks(16, int64(i))
	}
}

// TestModelLinkBytes bounds openLinks in bytes: the 240 directed links at
// n=16. With math/rand's own source every link carried a 4.9 KB
// register (~5.4 KB per link); a seeded sim.Source holds 24 bytes.
// Until the links were a flat table a link also cost its map entry and
// its own state struct (208 B a link in all). Now a link's stream lives
// in its 32-byte slot of the n·n table, so an opened link costs no heap
// object of its own: the model and its 8 KB table are the whole bill,
// two objects and 9.5 KB, or 39 B a link.
// MemStats counts the whole process, so the collector is off and the
// least of three runs is taken.
func TestModelLinkBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes inflate under -race")
	}
	const n = 16
	run := func() { openLinks(n, 7) }
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // warm up
	var before, after runtime.MemStats
	least, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for r := 0; r < 3; r++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	if perLink := least / (n * (n - 1)); perLink > 40 {
		t.Fatalf("opening a link allocates %d B (model included), want at most 40", perLink)
	}
	if objects > 2 {
		t.Fatalf("opening %d links allocates %d objects, want the model and its table", n*(n-1), objects)
	}
}

// TestFateAllocatesNothingUntraced pins the hot path: a delayed
// message's Fate allocates nothing, whether its link is open already or
// opened by this very message once the link table exists — a link's
// stream is a slot of the table (it used to be a rand.Rand and its
// source per opened link).
func TestFateAllocatesNothingUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflate under -race")
	}
	const n = 12
	m := NewModel(Spec{Latency: &LatencySpec{Dist: DistUniform, Min: 1, Max: 2}, Loss: 0.01}, n, 7)
	msg := model.Message{From: 0, To: 1, Kind: model.KindPlainValue}
	m.Fate(msg, 1) // builds the table and opens 0→1
	if allocs := testing.AllocsPerRun(100, func() { m.Fate(msg, 1) }); allocs != 0 {
		t.Fatalf("untraced Fate on an open link allocates %v times, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call and then 100 counted ones, each
	// on a link no message has crossed yet.
	next := 0
	fresh := func() {
		next++
		m.Fate(model.Message{From: model.NodeID(1 + next/n), To: model.NodeID(next % n)}, 1)
	}
	if allocs := testing.AllocsPerRun(100, fresh); allocs != 0 {
		t.Fatalf("untraced Fate opening a fresh link allocates %v times, want 0", allocs)
	}
}

// FuzzModelFatesMatchMathRandOracle is TestModelFatesMatchMathRandOracle
// over fuzzed seeds, sizes and specs: every link of an n ≤ 16 model takes
// enough messages to cross the stream's 273-output hand-over, and each
// fate must equal math/rand's oracle message for message.
func FuzzModelFatesMatchMathRandOracle(f *testing.F) {
	f.Add(int64(1995), uint8(4), uint8(5), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(16), uint8(10), uint8(1), uint8(3), uint8(20), uint8(2))
	f.Add(int64(0), uint8(2), uint8(0), uint8(0), uint8(2), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, size, loss, dist, maxDelay, reorder, bandwidth uint8) {
		n := 2 + int(size)%15
		spec := Spec{
			Loss:      float64(loss%50) / 100,
			Reorder:   float64(reorder%50) / 100,
			Bandwidth: int(bandwidth % 4),
		}
		switch dist % 4 {
		case 1:
			spec.Latency = &LatencySpec{Dist: DistFixed, Rounds: int(maxDelay % 4)}
		case 2:
			lo := int(maxDelay % 3)
			spec.Latency = &LatencySpec{Dist: DistUniform, Min: lo, Max: lo + int(maxDelay/3%3)}
		case 3:
			spec.Latency = &LatencySpec{Dist: DistLognormal, Mu: float64(maxDelay%10) / 10, Sigma: 0.3, Cap: 1 + int(maxDelay%6)}
		}
		const perLink, perRound = 300, 4
		m := NewModel(spec, n, seed)
		links := make([]oracleLink, n*n)
		for i := 0; i < perLink; i++ {
			round := 1 + i/perRound
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if from == to {
						continue
					}
					l := &links[from*n+to]
					if l.rng == nil {
						l.rng = rand.New(rand.NewSource(sim.NetLinkSeed(seed, from, to)))
					}
					msg := model.Message{From: model.NodeID(from), To: model.NodeID(to), Kind: model.KindPlainValue}
					if got, want := m.Fate(msg, round), l.fate(spec, round); got != want {
						t.Fatalf("%+v n=%d seed=%d: link %d→%d message %d: fate %d, math/rand oracle says %d", spec, n, seed, from, to, i, got, want)
					}
				}
			}
		}
	})
}

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
// register (~5.4 KB per link); sim.SeededSource holds 24 bytes. Until
// the links were a flat table a link also cost its map entry and its own
// state struct (208 B a link in all); now it is a 24-byte slot of the
// n·n table plus its stream — the rand.Rand (48 B) and its source (24 B)
// — about 99 B a link, the model included.
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
	least := uint64(math.MaxUint64)
	for r := 0; r < 3; r++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if perLink := least / (n * (n - 1)); perLink > 104 {
		t.Fatalf("opening a link allocates %d B (model included), want at most 104", perLink)
	}
}

// TestFateAllocatesNothingUntraced pins the untraced hot path: with no
// emitter attached and the link already open, a delayed message's Fate
// allocates nothing — the net.delay attribute is formatted only for an
// emitter that will take it (it used to be one string per delayed
// message on every untraced sweep).
func TestFateAllocatesNothingUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflate under -race")
	}
	m := NewModel(Spec{Latency: &LatencySpec{Dist: DistFixed, Rounds: 2}}, 4, 7)
	msg := model.Message{From: 0, To: 1, Kind: model.KindPlainValue}
	if d := m.Fate(msg, 1); d != 2 { // opens the link
		t.Fatalf("fate = %d, want the fixed 2-round delay", d)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Fate(msg, 1) }); allocs != 0 {
		t.Fatalf("untraced Fate of a delayed message allocates %v times, want 0", allocs)
	}
}

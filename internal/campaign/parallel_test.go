package campaign

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// phaseLoad is what one engine call of a probed run carried, per engine
// round (index round−1): the work its processes declared for the round
// and the payload bytes the round delivered.
type phaseLoad struct{ work, bytes []int }

// loadProbe is a simulator engine for core.WithEngine that records a
// phaseLoad per call: key distribution first, where the run has one, then
// the protocol run.
type loadProbe struct {
	mu     sync.Mutex
	phases []phaseLoad
}

func (p *loadProbe) engine(procs []sim.Process, maxRounds int, counters *metrics.Counters, tracer sim.Tracer, net sim.Network) (int, error) {
	p.mu.Lock()
	phase := len(p.phases)
	p.phases = append(p.phases, phaseLoad{work: make([]int, maxRounds), bytes: make([]int, maxRounds)})
	p.mu.Unlock()
	probed := make([]sim.Process, len(procs))
	for i, inner := range procs {
		probed[i] = &probedProc{inner: inner, probe: p, phase: phase}
	}
	opts := []sim.Option{sim.WithCounters(counters), sim.WithNetwork(net)}
	if tracer != nil {
		opts = append(opts, sim.WithTracer(tracer))
	}
	e, err := sim.New(model.Config{N: len(procs)}, probed, opts...)
	if err != nil {
		return 0, err
	}
	return e.Run(maxRounds).Rounds, nil
}

// probedProc forwards to inner and adds what inner declares for, and
// receives in, each round to its phase — in Step, which runs at every
// GOMAXPROCS, perhaps on a helper.
type probedProc struct {
	inner sim.Process
	probe *loadProbe
	phase int
}

func (p *probedProc) Step(round int, received []model.Message) []model.Message {
	work := sim.DeclaredWork(p.inner, round, received)
	n := 0
	for _, m := range received {
		n += len(m.Payload)
	}
	p.probe.mu.Lock()
	load := p.probe.phases[p.phase]
	load.work[round-1] += work
	load.bytes[round-1] += n
	p.probe.mu.Unlock()
	return p.inner.Step(round, received)
}

func (p *probedProc) Work(round int, received []model.Message) int {
	return sim.DeclaredWork(p.inner, round, received)
}

func (p *probedProc) Finished() bool {
	f, ok := p.inner.(sim.Finisher)
	return !ok || f.Finished()
}

// probeLoads runs inst on a probed simulator, setup included, and returns
// its phases.
func probeLoads(t *testing.T, inst Instance) []phaseLoad {
	t.Helper()
	probe := &loadProbe{}
	runOnEngine(t, inst, probe.engine)
	return probe.phases
}

// oldParallelBytes is the payload the engine once required a round to
// deliver before it stepped the round on every core; the declared-work
// criterion replaced it and must pick the same OM(t) rounds.
const oldParallelBytes = 1 << 20

// TestEIGDeclaredWorkKeepsItsParallelRounds: on eig_grid's three shapes,
// honest and under a two-faced sender, the declared-work criterion steps
// exactly the rounds in parallel that the byte rule did — OM(t)'s final
// round — and the rounds it keeps serial (the largest is n=128's relay
// round, 16,002 entries in 576 KB) stay serial.
func TestEIGDeclaredWorkKeepsItsParallelRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 OM(2) run")
	}
	for _, inst := range []Instance{
		{Protocol: ProtoEIG, N: 16, T: 3, Adversary: AdvNone, Seed: 11, KeySeed: 11},
		{Protocol: ProtoEIG, N: 16, T: 3, Adversary: AdvEquivocate, Seed: 12, KeySeed: 12},
		{Protocol: ProtoEIG, N: 64, T: 2, Adversary: AdvNone, Seed: 13, KeySeed: 13},
		{Protocol: ProtoEIG, N: 64, T: 2, Adversary: AdvEquivocate, Seed: 14, KeySeed: 14},
		{Protocol: ProtoEIG, N: 128, T: 2, Adversary: AdvNone, Seed: 15, KeySeed: 15},
	} {
		phases := probeLoads(t, inst)
		if len(phases) != 1 {
			t.Fatalf("%s: %d engine phases, want the run alone", inst.GroupKey(), len(phases))
		}
		parallel := 0
		for r, work := range phases[0].work {
			bytes := phases[0].bytes[r]
			if byWork, byBytes := work >= sim.ParallelWork, bytes >= oldParallelBytes; byWork != byBytes {
				t.Errorf("%s round %d: declares %d (parallel %v), delivers %d B (parallel %v under the byte rule)",
					inst.GroupKey(), r+1, work, byWork, bytes, byBytes)
			} else if byWork {
				parallel++
			}
		}
		if parallel == 0 {
			t.Errorf("%s: no round reaches the parallel path", inst.GroupKey())
		}
		t.Logf("%s: declared %v, delivered %v", inst.GroupKey(), phases[0].work, phases[0].bytes)
	}
}

// TestEIGReportsEqualAtAnyGOMAXPROCS: OM(t) instances whose final round
// declares ParallelWork — so the engine steps it on every core it has —
// produce byte-identical results at GOMAXPROCS 1 and 2: the eig_grid
// workload's three shapes, honest and two-faced.
func TestEIGReportsEqualAtAnyGOMAXPROCS(t *testing.T) {
	for _, inst := range []Instance{
		{Protocol: ProtoEIG, N: 16, T: 3, Adversary: AdvNone, Seed: 11, KeySeed: 11},
		{Protocol: ProtoEIG, N: 16, T: 3, Adversary: AdvEquivocate, Seed: 12, KeySeed: 12},
		{Protocol: ProtoEIG, N: 64, T: 2, Adversary: AdvNone, Seed: 13, KeySeed: 13},
	} {
		if work := probeLoads(t, inst)[0].work; work[len(work)-1] < sim.ParallelWork {
			t.Fatalf("%s: the final round declares %d, never reaching the parallel path", inst.GroupKey(), work[len(work)-1])
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

// TestSignedRoundsStayUnderParallelThreshold pins which rounds of the
// campaign_grid and serve workloads may leave the engine's serial path.
// At n=16 t=5, every signed protocol of the benchmark grid, under each of
// its adversaries and network conditions and both schemes, declares no
// work in any round of its run: a chain, flood or vector round costs a
// few signatures at most, no process of theirs implements sim.Worker,
// and the wrappers that adversaries and churn put around them forward
// that 0. Only the handshake declares, and only where it pays: its
// response and acceptance rounds reach sim.ParallelWork under ed25519
// (n(n−1) signatures, then as many verifications) and stay far under it
// under hmac-sha256, whose n=8 handshake took longer on two cores than on
// one.
func TestSignedRoundsStayUnderParallelThreshold(t *testing.T) {
	spec := benchmarkGridSweep0(sig.SchemeEd25519, sig.SchemeHMAC)
	spec.Cases = []Case{{N: 16, T: 5}}
	spec.SeedCount = 1
	instances, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for _, inst := range instances {
		phases := probeLoads(t, inst)
		run := phases[len(phases)-1]
		for r, work := range run.work {
			if work != 0 {
				t.Errorf("%s: run round %d declares %d", inst.GroupKey(), r+1, work)
			}
		}
		if inst.Protocol == ProtoNonAuth {
			continue
		}
		setup := phases[0].work
		for r, work := range setup {
			round := r + 1
			want := inst.Scheme == sig.SchemeEd25519 && round >= 3
			if got := work >= sim.ParallelWork; got != want {
				t.Errorf("%s: handshake round %d declares %d: parallel %v, want %v", inst.GroupKey(), round, work, got, want)
			}
			if inst.Scheme == sig.SchemeHMAC && work >= sim.ParallelWork/4 {
				t.Errorf("%s: hmac handshake round %d declares %d, a quarter of the threshold is %d", inst.GroupKey(), round, work, sim.ParallelWork/4)
			}
		}
	}
}

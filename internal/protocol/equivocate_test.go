package protocol

import (
	"cmp"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// TestSupportsEquivocateIsTheTwoFacedSet pins which drivers equivocate:
// exactly those with a two-faced sender, and those are chain, eig, fdba,
// nonauth and sm.
func TestSupportsEquivocateIsTheTwoFacedSet(t *testing.T) {
	var got []string
	for _, d := range Drivers() {
		cd, ok := d.(*clusterDriver)
		twoFaced := ok && cd.equivocator != nil
		if d.Capabilities().SupportsEquivocate != twoFaced {
			t.Errorf("%s: SupportsEquivocate = %v, has a two-faced sender = %v", d.Name(), !twoFaced, twoFaced)
		}
		if twoFaced {
			got = append(got, d.Name())
		}
	}
	sort.Strings(got)
	if want := []string{NameChain, NameEIG, NameFDBA, NameNonAuth, NameSM}; !reflect.DeepEqual(got, want) {
		t.Errorf("two-faced drivers = %v, want %v", got, want)
	}
}

// equivocationDrivers are the drivers whose two-faced sender replaced a
// hand-written one, in the order the rows index them.
var equivocationDrivers = []string{NameChain, NameFDBA, NameNonAuth, NameSM}

// equivocationStacks are the behaviors stacked after equivocate.
var equivocationStacks = []string{"alone", "delay", "duplicate", "crash"}

// equivocationRow is one differential case: a driver, (n, t), the
// partition and the rest of the sender's behavior stack. param 0 is the
// matrix's stack — delay=2, a duplicate to every node but the sender,
// crash round=2 — and the fuzzer's other values vary it: the delay
// (1–4), the crash round (1–5) or the victims (bit i−1 is P_i).
type equivocationRow struct {
	driver, n, t, partition, stack, param int
}

// equivocationRows is the matrix: every driver above × n ∈ 2…10 × every
// t < n (t = 0, which no driver runs an adversary at, keeps chain's
// disseminating split covered) × both partitions × every stack.
func equivocationRows() []equivocationRow {
	var rows []equivocationRow
	for d := range equivocationDrivers {
		for n := 2; n <= 10; n++ {
			for tol := 0; tol < n; tol++ {
				for p := 0; p < 2; p++ {
					for s := range equivocationStacks {
						rows = append(rows, equivocationRow{d, n, tol, p, s, 0})
					}
				}
			}
		}
	}
	return rows
}

// instance is the row's campaign instance: P_0 corrupt, equivocating
// first.
func (r equivocationRow) instance() Instance {
	eq := adversary.BehaviorSpec{Name: adversary.BehaviorEquivocate}
	if r.partition == 1 {
		eq.Partition = adversary.PartitionEvenOdd
	}
	behaviors := []adversary.BehaviorSpec{eq}
	switch equivocationStacks[r.stack] {
	case "delay":
		delay := 2
		if r.param > 0 {
			delay = 1 + r.param%4
		}
		behaviors = append(behaviors, adversary.BehaviorSpec{Name: adversary.BehaviorDelay, Delay: delay})
	case "duplicate":
		var victims []int
		for id := 1; id < r.n; id++ {
			if r.param == 0 || r.param&(1<<(id-1)) != 0 {
				victims = append(victims, id)
			}
		}
		if len(victims) == 0 {
			victims = []int{1}
		}
		behaviors = append(behaviors, adversary.BehaviorSpec{Name: adversary.BehaviorDuplicate, Victims: victims})
	case "crash":
		round := 2
		if r.param > 0 {
			round = 1 + r.param%5
		}
		behaviors = append(behaviors, adversary.BehaviorSpec{Name: adversary.BehaviorCrash, Round: round})
	}
	return Instance{N: r.n, T: r.t, Scheme: sig.SchemeEd25519, Seed: 1, KeySeed: 1,
		Strategy: adversary.Strategy{Nodes: []int{0}, Behaviors: behaviors}}
}

func (r equivocationRow) String() string {
	inst := r.instance()
	return fmt.Sprintf("%s n=%d t=%d %s", equivocationDrivers[r.driver], r.n, r.t, inst.Strategy.CanonicalName())
}

// refOptions is the fault wiring as it stood with the hand-written
// senders: the protocol's bespoke two-faced process in place of P_0,
// the behaviors after equivocate wrapped around it.
func refOptions(d *clusterDriver, inst Instance, c *core.Cluster) ([]core.RunOption, error) {
	specs, partition := splitEquivocate(inst.Strategy.Behaviors)
	faceOne, err := adversary.PartitionFaceOne(partition, inst.N)
	if err != nil {
		return nil, err
	}
	var sender sim.Process
	switch d.name {
	case NameNonAuth:
		sender = newRefEquivocatingPlainSenderFaces(c.Config(), senderValue, altSenderValue, faceOne)
	default:
		signer, err := c.Signer(0)
		if err != nil {
			return nil, err
		}
		if d.name == NameSM {
			sender = newRefEquivocatingSignedSenderFaces(c.Config(), signer, senderValue, altSenderValue, faceOne)
		} else {
			sender = newRefEquivocatingSenderFaces(c.Config(), signer, senderValue, altSenderValue, faceOne)
		}
	}
	opts := []core.RunOption{core.WithProcess(0, sender)}
	if len(specs) == 0 {
		return opts, nil
	}
	behaviors, err := adversary.BuildBehaviors(specs, inst.N, nil)
	if err != nil {
		return nil, err
	}
	return append(opts, core.WithWrappedProcess(0, func(p sim.Process) sim.Process {
		return adversary.WrapBehaviors(p, behaviors...)
	})), nil
}

var (
	clustersMu sync.Mutex
	// clusters are the established clusters by (n, t), keyed as every
	// row's instance is. Their simulator records each process, under the
	// planted mutant, into recorders: the latest run's, by node.
	clusters  = map[model.Config]*core.Cluster{}
	recorders []*simtest.Recorder
	planted   simtest.Mutant
)

// clusterFor returns the instance's cluster; callers hold clustersMu.
func clusterFor(t testing.TB, inst Instance) *core.Cluster {
	if c := clusters[inst.Config()]; c != nil {
		return c
	}
	engine := func(procs []sim.Process, maxRounds int, counters *metrics.Counters, tracer sim.Tracer, net sim.Network) (int, error) {
		recorders = make([]*simtest.Recorder, len(procs))
		wrapped := make([]sim.Process, len(procs))
		for i, p := range procs {
			recorders[i] = simtest.Record(planted.Wrap(i, p), 0, nil)
			wrapped[i] = recorders[i]
		}
		res, err := sim.RunInstance(inst.Config(), wrapped, maxRounds, sim.WithCounters(counters), sim.WithTracer(tracer), sim.WithNetwork(net))
		if err != nil {
			return 0, err
		}
		return res.Rounds, nil
	}
	c, err := core.New(inst.Config(), core.WithScheme(inst.Scheme), core.WithSeed(inst.Seed),
		core.WithKeySeed(inst.KeySeed), core.WithEngine(engine))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if _, err := c.EstablishAuthentication(); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	clusters[inst.Config()] = c
	return c
}

// diffEquivocationRow runs the row twice over one cluster — once with
// the hand-written sender, once through the driver's Run, whose two-faced
// sender runs under m — and returns the first divergence: round by
// round, every node's outbox (recipient, kind and payload, in order) and
// Finished after each round, then the runs' rounds, traffic and
// outcomes. The sender's Finished is compared only after the last round:
// a hand-written sender was finished from the start, a correct one at
// its protocol's end, and the engine reads it only to stop early, which
// the rounds pin.
func diffEquivocationRow(t *testing.T, row equivocationRow, m simtest.Mutant) error {
	t.Helper()
	drv, err := Lookup(equivocationDrivers[row.driver])
	if err != nil {
		t.Fatal(err)
	}
	d := drv.(*clusterDriver)
	inst := row.instance()

	clustersMu.Lock()
	defer clustersMu.Unlock()
	c := clusterFor(t, inst)
	refOpts, err := refOptions(d, inst, c)
	if err != nil {
		t.Fatalf("%v: %v", row, err)
	}
	wantRep, honest, err := c.Run(d.name, d.rounds(inst.T), d.builder(c, proposal(inst, d.value)), refOpts...)
	if err != nil {
		t.Fatalf("%v: %v", row, err)
	}
	want, wantOutcomes := recorders, []model.Outcome{}
	for _, p := range honest {
		if p != nil {
			wantOutcomes = append(wantOutcomes, p.(fd.Outcomer).Outcome())
		}
	}
	planted = m
	got, err := d.Run(inst, c)
	planted = simtest.Mutant{}
	if err != nil {
		t.Fatalf("%v: %v", row, err)
	}
	return cmp.Or(simtest.Compare(recorders, want, simtest.Options{FinishedAtEnd: model.NewNodeSet(0)}),
		simtest.Equal("rounds", got.Rounds, wantRep.Rounds),
		simtest.Equal("traffic", got.Snapshot, wantRep.Snapshot),
		simtest.Equal("outcomes", got.SubRuns[0].Outcomes, wantOutcomes))
}

// TestEquivocationDifferentialCatchesAPlantedByte: chain's two-faced
// sender at n=4 t=1 sends its round-1 value with one byte flipped, and
// the differential names that message.
func TestEquivocationDifferentialCatchesAPlantedByte(t *testing.T) {
	m := simtest.Mutant{Node: 0, Round: 1}
	m.Caught(t, diffEquivocationRow(t, equivocationRow{driver: 0, n: 4, t: 1}, m))
}

// TestEquivocationMatchesReference: on every row, each driver's
// two-faced sender — its correct sender under filters — runs exactly
// as the hand-written sender it replaced.
func TestEquivocationMatchesReference(t *testing.T) {
	for _, row := range equivocationRows() {
		if err := diffEquivocationRow(t, row, simtest.Mutant{}); err != nil {
			t.Fatalf("%v: %v", row, err)
		}
	}
}

// FuzzEquivocationMatchesReference is the same differential over any
// row and stack parameter, seeded with the matrix.
func FuzzEquivocationMatchesReference(f *testing.F) {
	for _, r := range equivocationRows() {
		f.Add(byte(r.driver), byte(r.n-2), byte(r.t), byte(r.partition), byte(r.stack), byte(r.param))
	}
	f.Fuzz(func(t *testing.T, driver, n, tol, partition, stack, param byte) {
		row := equivocationRow{
			driver:    int(driver) % len(equivocationDrivers),
			n:         2 + int(n)%9,
			partition: int(partition) % 2,
			stack:     int(stack) % len(equivocationStacks),
			param:     int(param),
		}
		row.t = int(tol) % row.n
		if err := diffEquivocationRow(t, row, simtest.Mutant{}); err != nil {
			t.Fatalf("%v: %v", row, err)
		}
	})
}

package protocol

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// TestSupportsEquivocateIsTheTwoFacedSet pins which drivers equivocate:
// exactly those with a two-faced sender, and those are chain, eig, fdba,
// nonauth and sm.
func TestSupportsEquivocateIsTheTwoFacedSet(t *testing.T) {
	var got []string
	for _, d := range Drivers() {
		twoFaced := d.Name() == NameEIG
		if cd, ok := d.(*clusterDriver); ok {
			twoFaced = cd.equivocator != nil
		}
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
	behaviors, err := adversary.BuildBehaviors(specs, inst.N)
	if err != nil {
		return nil, err
	}
	return append(opts, core.WithWrappedProcess(0, func(p sim.Process) sim.Process {
		return adversary.WrapBehaviors(p, behaviors...)
	})), nil
}

// step is what one node did in one round: its outbox, payloads copied,
// and whether it reported finished after it.
type step struct {
	out      []model.Message
	finished bool
}

// recorder logs every Step of the process it wraps.
type recorder struct {
	inner sim.Process
	steps *[]step
}

func (r *recorder) Step(round int, in []model.Message) []model.Message {
	out := r.inner.Step(round, in)
	s := step{finished: r.Finished()}
	for _, m := range out {
		m.Payload = bytes.Clone(m.Payload)
		s.out = append(s.out, m)
	}
	*r.steps = append(*r.steps, s)
	return out
}

func (r *recorder) Finished() bool {
	f, ok := r.inner.(sim.Finisher)
	return !ok || f.Finished()
}

// recordingCluster is an established cluster of n nodes whose engine is
// the simulator with every process under a recorder: steps[i] is node
// i's log of the latest run.
type recordingCluster struct {
	c     *core.Cluster
	steps [][]step
}

var (
	recordingMu       sync.Mutex
	recordingClusters = map[model.Config]*recordingCluster{}
)

// clusterFor returns the shared recording cluster of the instance's
// (n, t), keyed as every row's instance is; callers hold recordingMu.
func clusterFor(t testing.TB, inst Instance) *recordingCluster {
	if rc := recordingClusters[inst.Config()]; rc != nil {
		return rc
	}
	rc := &recordingCluster{}
	engine := func(procs []sim.Process, maxRounds int, counters *metrics.Counters, tracer sim.Tracer, net sim.Network) (int, error) {
		rc.steps = make([][]step, len(procs))
		wrapped := make([]sim.Process, len(procs))
		for i, p := range procs {
			wrapped[i] = &recorder{inner: p, steps: &rc.steps[i]}
		}
		opts := []sim.Option{sim.WithCounters(counters)}
		if tracer != nil {
			opts = append(opts, sim.WithTracer(tracer))
		}
		if net != nil {
			opts = append(opts, sim.WithNetwork(net))
		}
		e, err := sim.New(inst.Config(), wrapped, opts...)
		if err != nil {
			return 0, err
		}
		return e.Run(maxRounds).Rounds, nil
	}
	c, err := core.New(inst.Config(), core.WithScheme(inst.Scheme), core.WithSeed(inst.Seed),
		core.WithKeySeed(inst.KeySeed), core.WithEngine(engine))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if _, err := c.EstablishAuthentication(); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	rc.c = c
	recordingClusters[inst.Config()] = rc
	return rc
}

// checkEquivocationRow runs the row twice through core.Cluster — once
// with the hand-written sender, once with the driver's two-faced sender
// — and compares the runs round by round: every node's outbox
// (recipient, kind and payload, in order), every correct node's Finished
// after each round and every node's after the last, then the report's
// rounds, traffic and outcomes. The sender's Finished is compared only
// at the end: a hand-written sender was finished from the start, a
// correct one at its protocol's end, and the engine reads it only to
// stop early, which the rounds pin.
func checkEquivocationRow(t *testing.T, row equivocationRow) {
	t.Helper()
	drv, err := Lookup(equivocationDrivers[row.driver])
	if err != nil {
		t.Fatal(err)
	}
	d := drv.(*clusterDriver)
	inst := row.instance()

	recordingMu.Lock()
	defer recordingMu.Unlock()
	rc := clusterFor(t, inst)
	run := func(opts []core.RunOption) (core.Report, [][]step) {
		rep, err := rc.c.RunFailureDiscovery(proposal(inst, d.value), append(opts, core.WithProtocol(d.proto))...)
		if err != nil {
			t.Fatalf("%v: %v", row, err)
		}
		return rep, rc.steps
	}
	refOpts, err := refOptions(d, inst, rc.c)
	if err != nil {
		t.Fatalf("%v: %v", row, err)
	}
	wantRep, want := run(refOpts)
	opts, err := runOptions(inst, rc.c, d.equivocator)
	if err != nil {
		t.Fatalf("%v: %v", row, err)
	}
	gotRep, got := run(opts)

	for id := range want {
		if len(got[id]) != len(want[id]) {
			t.Fatalf("%v: P%d stepped %d rounds, reference %d", row, id, len(got[id]), len(want[id]))
		}
		for r := range want[id] {
			g, w := got[id][r], want[id][r]
			if len(g.out) != len(w.out) {
				t.Fatalf("%v: P%d round %d sent %d messages, reference %d", row, id, r+1, len(g.out), len(w.out))
			}
			for k := range w.out {
				if g.out[k].To != w.out[k].To || g.out[k].Kind != w.out[k].Kind || !bytes.Equal(g.out[k].Payload, w.out[k].Payload) {
					t.Fatalf("%v: P%d round %d message %d is %v→%v, reference %v→%v", row, id, r+1, k, g.out[k].Kind, g.out[k].To, w.out[k].Kind, w.out[k].To)
				}
			}
			if (id != 0 || r == len(want[id])-1) && g.finished != w.finished {
				t.Fatalf("%v: P%d Finished after round %d = %v, reference %v", row, id, r+1, g.finished, w.finished)
			}
		}
	}
	if gotRep.Rounds != wantRep.Rounds {
		t.Fatalf("%v: %d rounds, reference %d", row, gotRep.Rounds, wantRep.Rounds)
	}
	if !reflect.DeepEqual(gotRep.Snapshot, wantRep.Snapshot) {
		t.Fatalf("%v: traffic %+v, reference %+v", row, gotRep.Snapshot, wantRep.Snapshot)
	}
	if !reflect.DeepEqual(gotRep.Outcomes, wantRep.Outcomes) {
		t.Fatalf("%v: outcomes %v, reference %v", row, gotRep.Outcomes, wantRep.Outcomes)
	}
}

// TestEquivocationMatchesReference: on every row, each driver's
// two-faced sender — its correct sender under filters — runs exactly
// as the hand-written sender it replaced.
func TestEquivocationMatchesReference(t *testing.T) {
	for _, row := range equivocationRows() {
		checkEquivocationRow(t, row)
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
		checkEquivocationRow(t, row)
	})
}

package sim

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
)

// bulkProc sends every peer a payload that is a function of everything
// the node received so far — so an inbox in another order, or a message
// lost or added, changes every later payload — and declares an eighth of
// ParallelWork per message it receives, so a round of n=8 crosses the
// threshold even after losses. It sleeps inside Step so that rounds
// stepped on two goroutines overlap, which active measures.
type bulkProc struct {
	n      int
	digest uint64
	seen   []uint64 // digest after each round
	active *atomic.Int32
	most   *atomic.Int32
}

const bulkPayload = 1 << 10

func (p *bulkProc) Work(_ int, received []model.Message) int {
	return len(received) * ParallelWork / 8
}

func (p *bulkProc) Step(round int, received []model.Message) []model.Message {
	now := p.active.Add(1)
	defer p.active.Add(-1)
	for most := p.most.Load(); now > most && !p.most.CompareAndSwap(most, now); most = p.most.Load() {
	}
	time.Sleep(time.Millisecond)
	h := fnv.New64a()
	h.Write([]byte{byte(p.digest), byte(p.digest >> 8), byte(round)})
	for _, m := range received {
		h.Write([]byte{byte(m.From), byte(m.Round)})
		h.Write(m.Payload)
	}
	p.digest = h.Sum64()
	p.seen = append(p.seen, p.digest)
	if round > 5 {
		return nil
	}
	var out []model.Message
	for to := 0; to < p.n; to++ {
		payload := make([]byte, bulkPayload+to)
		for i := range payload {
			payload[i] = byte(p.digest >> (i % 8 * 8))
		}
		out = append(out, model.Message{To: model.NodeID(to), Kind: model.KindPlainValue, Payload: payload})
	}
	return out
}

// fateLog is a lossy, delaying network that remembers every Fate call.
type fateLog struct{ calls []model.Message }

func (f *fateLog) Fate(m model.Message, round int) int {
	f.calls = append(f.calls, model.Message{From: m.From, To: m.To, Round: round, Payload: m.Payload[:8]})
	switch (int(m.From)*7 + int(m.To)*3 + round) % 5 {
	case 0:
		return Drop
	case 1:
		return 1
	}
	return 0
}

// bulkRun is everything a run of the bulk cluster makes observable.
type bulkRun struct {
	rounds    int
	snapshot  metrics.Snapshot
	delivered []model.Message
	views     []model.View
	digests   [][]uint64
	fates     []model.Message
	overlap   int32
}

func runBulk(t *testing.T, procs int) bulkRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const n = 8
	var active, most atomic.Int32
	nodes := make([]*bulkProc, n)
	ps := make([]Process, n)
	for i := range nodes {
		nodes[i] = &bulkProc{n: n, active: &active, most: &most}
		ps[i] = nodes[i]
	}
	rec, net := &RecordingTracer{}, &fateLog{}
	res, err := RunInstance(model.Config{N: n, T: 2}, ps, 10, WithTracer(rec), WithNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	run := bulkRun{rounds: res.Rounds, snapshot: res.Counters.Snapshot(), delivered: rec.Messages(),
		views: rec.Views(n), fates: net.calls, overlap: most.Load()}
	for _, p := range nodes {
		run.digests = append(run.digests, p.seen)
	}
	return run
}

// TestParallelRoundsMatchSerial: a run whose rounds declare ParallelWork
// under a lossy, delaying network delivers, fates, counts and ends
// exactly as at GOMAXPROCS 1, and every node sees the same view — while
// at GOMAXPROCS 2 its Step calls did overlap.
func TestParallelRoundsMatchSerial(t *testing.T) {
	serial := runBulk(t, 1)
	parallel := runBulk(t, 2)
	if serial.overlap != 1 {
		t.Errorf("GOMAXPROCS 1: %d Step calls overlapped", serial.overlap)
	}
	if parallel.overlap < 2 {
		t.Errorf("GOMAXPROCS 2: Step calls never overlapped")
	}
	serial.overlap, parallel.overlap = 0, 0
	if serial.rounds != parallel.rounds {
		t.Errorf("rounds: %d serial, %d parallel", serial.rounds, parallel.rounds)
	}
	for name, pair := range map[string][2]any{
		"counters":     {serial.snapshot, parallel.snapshot},
		"delivery":     {serial.delivered, parallel.delivered},
		"views":        {serial.views, parallel.views},
		"node digests": {serial.digests, parallel.digests},
		"Fate calls":   {serial.fates, parallel.fates},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s differ between GOMAXPROCS 1 and 2", name)
		}
	}
}

// TestParallelRoundPanicReachesCaller: a Step that panics on a helper is
// re-raised on the goroutine that called Run, where a campaign's recover
// contains it, instead of killing the process. The run's store goes back
// to the pool all the same, and the next parallel run that borrows it
// must not re-raise the old panic.
func TestParallelRoundPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 4
	var active, most atomic.Int32
	ps := make([]Process, n)
	for i := range ps {
		bulk := &bulkProc{n: n, active: &active, most: &most}
		ps[i] = declaring{ProcessFunc(func(round int, received []model.Message) []model.Message {
			if round == 2 && i == n-1 {
				panic("node fails")
			}
			return bulk.Step(round, received)
		}), ParallelWork}
	}
	func() {
		defer func() {
			if p := recover(); p != "node fails" {
				t.Errorf("recovered %v, want the Step's panic", p)
			}
		}()
		if _, err := RunInstance(model.Config{N: n, T: 1}, ps, 4); err != nil {
			t.Fatal(err)
		}
		t.Error("Run returned despite a panicking Step")
	}()
	if run := runBulk(t, 2); run.rounds == 0 {
		t.Error("the run after a panicking one did not run")
	}
}

// declaring is a process that declares work for every round.
type declaring struct {
	Process
	work int
}

func (d declaring) Work(int, []model.Message) int { return d.work }

// TestUndeclaredRoundsStaySerial: at GOMAXPROCS 2, a round steps in node
// order on one goroutine, however many bytes it carries, unless its
// processes declare ParallelWork between them: processes that declare
// nothing, and processes whose declarations add up to one unit short,
// never overlap; one more unit and they do.
func TestUndeclaredRoundsStaySerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 4
	for _, tc := range []struct {
		name    string
		work    int // per process
		overlap bool
	}{
		{"none", 0, false},
		{"one unit short", ParallelWork/n - 1, false},
		{"at the threshold", ParallelWork / n, true},
	} {
		var active, most atomic.Int32
		ps := make([]Process, n)
		for i := range ps {
			bulk := &bulkProc{n: n, active: &active, most: &most}
			big := ProcessFunc(func(round int, received []model.Message) []model.Message {
				out := bulk.Step(round, received)
				for j := range out {
					out[j].Payload = append(out[j].Payload, make([]byte, 256<<10)...)
				}
				return out
			})
			ps[i] = declaring{big, tc.work}
			if tc.work == 0 {
				ps[i] = big
			}
		}
		if _, err := RunInstance(model.Config{N: n, T: 1}, ps, 8); err != nil {
			t.Fatal(err)
		}
		if got := most.Load() > 1; got != tc.overlap {
			t.Errorf("%s: Step calls overlapped %v, want %v", tc.name, got, tc.overlap)
		}
	}
}

// workOrder records, for one node, each Work and Step call in one shared
// log.
type workOrder struct {
	id  int
	log *[]string
}

func (w workOrder) Work(round int, received []model.Message) int {
	*w.log = append(*w.log, fmt.Sprintf("work %d/%d got %d", round, w.id, len(received)))
	return 0
}

func (w workOrder) Step(round int, received []model.Message) []model.Message {
	*w.log = append(*w.log, fmt.Sprintf("step %d/%d", round, w.id))
	if round == 1 {
		return []model.Message{{To: model.NodeID(1 - w.id), Kind: model.KindPlainValue}}
	}
	return nil
}

// TestWorkDeclaredBeforeStep: at GOMAXPROCS 2, in every round the engine
// asks each process for its work in node order, over the inbox its Step then receives, and
// before any Step of that round.
func TestWorkDeclaredBeforeStep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var log []string
	ps := []Process{workOrder{0, &log}, workOrder{1, &log}}
	if _, err := RunInstance(model.Config{N: 2, T: 0}, ps, 2); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"work 1/0 got 0", "work 1/1 got 0", "step 1/0", "step 1/1",
		"work 2/0 got 1", "work 2/1 got 1", "step 2/0", "step 2/1",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("calls %q, want %q", log, want)
	}
}

// firstRoundEnv marks the fresh test process TestFirstParallelRoundIsShared
// runs its round in.
const firstRoundEnv = "SIM_TEST_FIRST_PARALLEL_ROUND"

// TestFirstParallelRoundIsShared: the first round of a process that
// reaches ParallelWork is stepped on two goroutines, like every later
// one — a helper started for it takes its share rather than parking for
// the next. The round runs in a fresh copy of the test binary, where no
// helper has started yet; its two Steps each wait, up to a timeout, until
// both are in flight.
func TestFirstParallelRoundIsShared(t *testing.T) {
	if os.Getenv(firstRoundEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFirstParallelRoundIsShared$", "-test.count=1")
		cmd.Env = append(os.Environ(), firstRoundEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("first parallel round: %v\n%s", err, out)
		}
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var arrived atomic.Int32
	var met [2]bool
	ps := make([]Process, len(met))
	for i := range ps {
		ps[i] = declaring{ProcessFunc(func(int, []model.Message) []model.Message {
			arrived.Add(1)
			for deadline := time.Now().Add(5 * time.Second); arrived.Load() < 2 && time.Now().Before(deadline); {
				time.Sleep(50 * time.Microsecond)
			}
			met[i] = arrived.Load() == 2
			return nil
		}), ParallelWork}
	}
	if _, err := RunInstance(model.Config{N: len(ps)}, ps, 1); err != nil {
		t.Fatal(err)
	}
	if !met[0] || !met[1] {
		t.Errorf("the first parallel round's Steps were never both in flight: %v", met)
	}
}

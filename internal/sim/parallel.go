package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// ParallelWork is the work a round's processes must declare (Worker)
// before the engine steps its nodes on more than one core. One unit is
// ba's ingest of one relayed OM(t) entry, a few tens of nanoseconds, and
// sig prices a signature and a verification in the same unit
// (sig.CostOf), so 24,576 units is about a millisecond of one core:
// enough to pay for waking a helper many times over. It sits between
// the largest round eig_grid's OM(t) shapes step serially (n=128 t=2's
// relay round, 16,002 entries) and the smallest they step in parallel
// (n=16 t=3's final round, 38,220), the rounds that crossed the one
// mebibyte the engine once required of a round's payload. Key
// distribution's response and acceptance rounds reach it from n=6 under
// ed25519 (acceptance alone from n=4); under hmac-sha256 they stay
// under it up to n=37.
const ParallelWork = 24 << 10

// Worker is an optional interface: a process that knows what its next
// Step will cost declares it, and the engine sums the declarations of a
// round's processes against ParallelWork. Processes that do not
// implement it declare 0.
type Worker interface {
	// Work returns the work Step(round, received) will do, in
	// ParallelWork's unit. It is a pure function of the process's state
	// and its arguments, never of the wall clock, so a run takes the same
	// path on every machine; it changes no state. At GOMAXPROCS > 1 the
	// engine calls it in node order, before any Step of the round; on one
	// core it need not call it at all.
	Work(round int, received []model.Message) int
}

// DeclaredWork returns what p declares for round over received: 0 unless
// p is a Worker. A process that wraps another forwards its inner
// process's declaration through it.
func DeclaredWork(p Process, round int, received []model.Message) int {
	if w, ok := p.(Worker); ok {
		return w.Work(round, received)
	}
	return 0
}

// stepJob is one run's parallel step phase: the engine's goroutine and
// whichever parked helpers are idle claim node indices from one counter
// and store each node's sends in outs, which the engine then consumes in
// node order. Each run store holds one (see runStore), which a run arms on
// its first parallel round and reuses for every later one.
type stepJob struct {
	procs []Process
	outs  [][]model.Message

	round   int
	inboxes [][]model.Message
	claim   atomic.Int64
	done    sync.WaitGroup
	// panicked holds the first panic a Step raised, re-raised on the
	// engine's goroutine so a campaign's recover sees it.
	panicMu  sync.Mutex
	panicked any
}

// The parked helper goroutines: started on first use, one fewer than
// GOMAXPROCS, never stopped, shared by every engine. A helper blocks on
// helperJobs until an engine hands it a round. Parked goroutines keep the
// heap flat where a goroutine per parallel round would not: dead
// goroutines' structs pile up on the runtime's free lists.
var (
	helperJobs     = make(chan *stepJob)
	helpersMu      sync.Mutex
	helpersStarted int
)

// startHelpers makes sure k helpers are parked or working, and returns
// how many it started. A new helper works on first before it parks: the
// handoff cannot reach it yet, so first would otherwise run on one core.
func startHelpers(k int, first *stepJob) int {
	helpersMu.Lock()
	defer helpersMu.Unlock()
	started := 0
	for ; helpersStarted < k; helpersStarted++ {
		started++
		first.done.Add(1)
		go func() {
			first.work()
			for j := range helperJobs {
				j.work()
			}
		}()
	}
	return started
}

// step runs every process's Step for round over inboxes, filling outs.
// The handoff never waits for a helper: the channel is unbuffered and the
// send non-blocking, so only a helper parked right now takes the round —
// one busy with another engine's round is skipped, and the engine's own
// goroutine steps whatever nobody claims.
func (j *stepJob) step(round int, inboxes [][]model.Message) {
	j.round, j.inboxes = round, inboxes
	j.claim.Store(0)
	k := min(runtime.GOMAXPROCS(0), len(j.procs)) - 1
	k -= startHelpers(k, j)
handoff:
	for range k {
		j.done.Add(1)
		select {
		case helperJobs <- j:
		default:
			j.done.Done()
			break handoff
		}
	}
	j.done.Add(1)
	j.work()
	j.done.Wait()
	if j.panicked != nil {
		panic(j.panicked)
	}
}

// work claims and steps nodes until none is left, then signs off.
func (j *stepJob) work() {
	defer j.done.Done()
	defer func() {
		if p := recover(); p != nil {
			j.panicMu.Lock()
			if j.panicked == nil {
				j.panicked = p
			}
			j.panicMu.Unlock()
		}
	}()
	for {
		i := int(j.claim.Add(1)) - 1
		if i >= len(j.procs) {
			return
		}
		j.outs[i] = j.procs[i].Step(j.round, j.inboxes[i])
	}
}

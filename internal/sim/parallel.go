package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// ParallelRoundBytes is the payload one round must deliver before the
// engine steps its nodes on more than one core. It sits far above the
// largest round of every signed protocol in the repository's campaign
// grid (under 200 KB, pinned below a quarter of this), so those runs keep
// the serial path, and below OM(t)'s final round at n=16 t=3 (2 MB).
const ParallelRoundBytes = 1 << 20

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

// startHelpers makes sure k helpers are parked or working.
func startHelpers(k int) {
	helpersMu.Lock()
	defer helpersMu.Unlock()
	for ; helpersStarted < k; helpersStarted++ {
		go func() {
			for j := range helperJobs {
				j.work()
			}
		}()
	}
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
	startHelpers(k)
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

package sim

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/metrics"
	"repro/internal/model"
)

// floodRounds is how many rounds floodProcs send in.
const floodRounds = 2

// floodProcs returns n processes that each send every peer a one-byte
// oral message in each of the first floodRounds rounds, the same slice
// every time: the shape of the benchmark's sim.engine_ns_per_msg row,
// 8,064 messages at n=64, nothing in them but the engine's own work.
func floodProcs(n int) []Process {
	procs := make([]Process, n)
	for i := range procs {
		out := make([]model.Message, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				out = append(out, model.Message{To: model.NodeID(j), Kind: model.KindOral, Payload: []byte{1}})
			}
		}
		procs[i] = ProcessFunc(func(round int, _ []model.Message) []model.Message {
			if round > floodRounds {
				return nil
			}
			return out
		})
	}
	return procs
}

// BenchmarkEngineFlood is the go test body beside sim.engine_ns_per_msg:
// the n=64 two-round flood, reported per message moved.
func BenchmarkEngineFlood(b *testing.B) {
	cfg := model.Config{N: 64, T: 2}
	procs := floodProcs(cfg.N)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunInstance(cfg, procs, floodRounds+1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*floodRounds*cfg.N*(cfg.N-1)), "ns/msg")
}

// TestEngineRunAllocs pins the n=64 flood in the steady state: the
// engine, its counters with their three tallies grown to the run's kinds,
// senders and rounds (eight slots first, then doubling: four growths for
// 64 senders), and the result — nothing per message, per inbox or per
// round, because the inboxes come out of the run-store pool already
// grown. The collector is off so that no cycle empties the pool between
// runs; the warm-up fills it.
func TestEngineRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflate under -race")
	}
	cfg := model.Config{N: 64, T: 2}
	procs := floodProcs(cfg.N)
	run := func() {
		res, err := RunInstance(cfg, procs, floodRounds+1)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Counters.Messages(); got != floodRounds*cfg.N*(cfg.N-1) {
			t.Fatalf("flood moved %d messages, want %d", got, floodRounds*cfg.N*(cfg.N-1))
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	const want = 9 // engine, counters, 1 kind + 4 sender + 1 round growths, result
	if allocs := testing.AllocsPerRun(50, run); allocs != want {
		t.Errorf("an n=64 flood run allocates %.0f times, want exactly %d", allocs, want)
	}
}

// TestPooledInboxesKeepNoPayload: once a run is over, nothing the engine
// pools holds one of its payloads. A first collection only moves a
// sync.Pool's contents to its victim cache, so the run's store is still
// reachable then, and a payload one of its inboxes kept — in its length
// or past it — would be too; every weak pointer must be nil all the same.
// A second collection lets every cleanup run.
func TestPooledInboxesKeepNoPayload(t *testing.T) {
	const n = 8
	var (
		weaks   []weak.Pointer[[64]byte]
		cleaned atomic.Int32
	)
	func() {
		procs := make([]Process, n)
		for i := range procs {
			procs[i] = ProcessFunc(func(round int, _ []model.Message) []model.Message {
				if round > 3 {
					return nil
				}
				var out []model.Message
				for to := 0; to < n; to++ {
					p := new([64]byte)
					p[0] = byte(i)
					weaks = append(weaks, weak.Make(p))
					runtime.AddCleanup(p, func(c *atomic.Int32) { c.Add(1) }, &cleaned)
					out = append(out, model.Message{To: model.NodeID(to), Kind: model.KindPlainValue, Payload: p[:]})
				}
				return out
			})
		}
		if _, err := RunInstance(model.Config{N: n, T: 2}, procs, 6); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	for i, w := range weaks {
		if w.Value() != nil {
			t.Fatalf("payload %d of %d still reachable after the run and one collection", i, len(weaks))
		}
	}
	runtime.GC()
	for deadline := time.Now().Add(5 * time.Second); int(cleaned.Load()) < len(weaks); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d payloads cleaned up after two collections", cleaned.Load(), len(weaks))
		}
		time.Sleep(time.Millisecond)
	}
}

// chainProc sends every peer, in each of its first rounds, a payload
// derived from everything it has received: a message of another run
// leaking into its inbox, or one of its own going missing, changes every
// later payload and its digest. It declares a ten-thousandth of
// ParallelWork per message received, so n=128's rounds (16,256 messages)
// cross the threshold and n=4's and n=16's do not: at GOMAXPROCS > 1 the
// largest size takes the pooled hand-off beside serial runs.
type chainProc struct {
	id, n, rounds int
	digest        uint64
	out           []model.Message
}

func (p *chainProc) Step(round int, received []model.Message) []model.Message {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], p.digest)
	h.Write(buf[:])
	for _, m := range received {
		binary.BigEndian.PutUint64(buf[:], uint64(m.From)<<32|uint64(m.Round))
		h.Write(buf[:])
		h.Write(m.Payload)
	}
	p.digest = h.Sum64()
	if round > p.rounds {
		return nil
	}
	p.out = p.out[:0]
	for to := 0; to < p.n; to++ {
		payload := make([]byte, 72+(p.id+to+round)%16)
		binary.BigEndian.PutUint64(payload, p.digest^uint64(to))
		p.out = append(p.out, model.Message{To: model.NodeID(to), Kind: model.KindPlainValue, Payload: payload})
	}
	return p.out
}

func (p *chainProc) Work(_ int, received []model.Message) int {
	return len(received) * ParallelWork / 10000
}

// sizedRun is what one chainProc run makes observable.
type sizedRun struct {
	rounds   int
	snapshot metrics.Snapshot
	digests  []uint64
}

func runSized(n int) (sizedRun, error) {
	procs := make([]Process, n)
	nodes := make([]*chainProc, n)
	for i := range procs {
		nodes[i] = &chainProc{id: i, n: n, rounds: 2 + n%3}
		procs[i] = nodes[i]
	}
	res, err := RunInstance(model.Config{N: n, T: 1}, procs, 8)
	if err != nil {
		return sizedRun{}, err
	}
	run := sizedRun{rounds: res.Rounds, snapshot: res.Counters.Snapshot()}
	for _, p := range nodes {
		run.digests = append(run.digests, p.digest)
	}
	return run, nil
}

// TestConcurrentSizesSharePool: engines of n = 4, 16 and 128 borrow
// from the one run-store pool at the same time — stores grown by one size
// serve the others — and every run equals its size's serial run.
func TestConcurrentSizesSharePool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	sizes := []int{4, 16, 128}
	serial := map[int]sizedRun{}
	for _, n := range sizes {
		run, err := runSized(n)
		if err != nil {
			t.Fatal(err)
		}
		serial[n] = run
	}
	if got := serial[128].snapshot.Messages / serial[128].snapshot.CommunicationRounds * ParallelWork / 10000; got < ParallelWork {
		t.Fatalf("n=128 rounds declare %d: too little to take the parallel hand-off", got)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				n := sizes[(g+rep)%len(sizes)]
				run, err := runSized(n)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(run, serial[n]) {
					t.Errorf("n=%d: a run beside other sizes differs from its serial run", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStoreLentWithoutItsPoolEntry: a released store whose pool entry
// no borrower can reach — left in another P's private slot — is still
// lent, through spare, and to one borrower only; its entry, once seen
// again, is skipped while the store is out.
func TestStoreLentWithoutItsPoolEntry(t *testing.T) {
	s := borrowStore(4)
	s.release(4)
	var stranded []any
	for x := storePool.Get(); x != nil; x = storePool.Get() {
		stranded = append(stranded, x)
	}
	if got := claimStore(); got != s {
		t.Fatalf("claimed %p, want the released store %p", got, s)
	}
	for _, x := range stranded {
		storePool.Put(x)
	}
	if got := claimStore(); got == s {
		t.Fatal("the store was lent twice")
	}
	s.release(4)
}

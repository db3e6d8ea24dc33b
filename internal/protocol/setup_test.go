package protocol

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/keydist"
	"repro/internal/sig"
)

// flakyScheme is the toy scheme with a key generator the tests can break.
type flakyScheme struct {
	sig.Scheme
	mode atomic.Int32
}

const (
	flakyWorks = iota
	flakyErrors
	flakyPanics
)

var flaky = &flakyScheme{}

func init() {
	toy, err := sig.ByName(sig.SchemeToy)
	if err != nil {
		panic(err)
	}
	flaky.Scheme = toy
	sig.Register(flaky)
}

func (*flakyScheme) Name() string { return "test-flaky" }

func (s *flakyScheme) Generate(rand io.Reader) (sig.Signer, error) {
	switch s.mode.Load() {
	case flakyErrors:
		return nil, errors.New("flaky: no keys today")
	case flakyPanics:
		panic("flaky: keygen bug")
	}
	return s.Scheme.Generate(rand)
}

// TestSetupStoreBuildsColdCellOnce releases eight goroutines on one cold
// cell: one of them pays the handshake, the other seven are served by it
// — blocked on it or arriving after — and all eight hold the same nodes.
func TestSetupStoreBuildsColdCellOnce(t *testing.T) {
	const callers = 8
	sc := NewSetupCache(0)
	inst := Instance{N: 8, T: 2, Scheme: sig.SchemeEd25519, Seed: 5, KeySeed: 7}
	nodes := make([][]*keydist.Node, callers)
	seen := make([]string, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mine := inst
			mine.Seed += int64(i) // run seeds differ across a cell; keys do not
			mine.SetupServed = &seen[i]
			<-start
			var err error
			if nodes[i], err = sc.Established(mine); err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if hits, misses := sc.Stats(); misses != 1 || hits != callers-1 {
		t.Errorf("Stats() = %d hits, %d misses; want %d, 1", hits, misses, callers-1)
	}
	built := 0
	for i := range nodes {
		if len(nodes[i]) != inst.N || &nodes[i][0] != &nodes[0][0] {
			t.Errorf("caller %d holds its own material", i)
		}
		switch seen[i] {
		case "miss":
			built++
		case "hit", "wait":
		default:
			t.Errorf("caller %d: lookup outcome %v", i, seen[i])
		}
	}
	if built != 1 {
		t.Errorf("%d callers report having built the cell, want 1", built)
	}
}

// TestSetupStoreDropsFailedBuilds: a build that errors or panics leaves
// no cell behind — not a poisoned one, not a half-built one — so the next
// lookup builds again; and callers queued on a failing build each retry
// under their own seeds rather than inherit its error.
func TestSetupStoreDropsFailedBuilds(t *testing.T) {
	defer flaky.mode.Store(flakyWorks)
	sc := NewSetupCache(0)
	inst := Instance{N: 4, T: 1, Scheme: flaky.Name(), Seed: 1, KeySeed: 1}

	flaky.mode.Store(flakyErrors)
	if _, err := sc.Established(inst); err == nil {
		t.Fatal("a failing keygen established a cell")
	}
	flaky.mode.Store(flakyPanics)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the keygen panic did not reach the caller")
			}
		}()
		sc.Established(inst)
	}()
	if sc.Len() != 0 {
		t.Fatalf("failed builds left %d cells behind", sc.Len())
	}

	flaky.mode.Store(flakyErrors)
	const callers = 4
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sc.Established(inst); err == nil {
				t.Error("a failing keygen established a cell")
			}
		}()
	}
	wg.Wait()
	if hits, misses := sc.Stats(); hits != 0 || misses != 2+callers || sc.Len() != 0 {
		t.Fatalf("after %d failed lookups: %d hits, %d builds, %d cells; want 0, %d, 0",
			2+callers, hits, misses, sc.Len(), 2+callers)
	}

	flaky.mode.Store(flakyWorks)
	var seen string
	inst.SetupServed = &seen
	if nodes, err := sc.Established(inst); err != nil || len(nodes) != inst.N || seen != "miss" {
		t.Fatalf("lookup after the failures: %d nodes, %v, %v; want a fresh build", len(nodes), err, seen)
	}
	if _, err := sc.Established(inst); err != nil || seen != "hit" || sc.Len() != 1 {
		t.Fatalf("lookup after the rebuild: %v, %v, %d cells; want a hit on 1", err, seen, sc.Len())
	}
}

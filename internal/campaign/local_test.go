package campaign

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sig"
)

// onExecutor is Local with the executor supplied, so a test can read the
// store the sweep ran over.
type onExecutor struct {
	workers int
	exec    *Executor
}

func (s onExecutor) Execute(_ Spec, instances []Instance) ([]Result, error) {
	return NewLocal(s.workers).executeOn(s.exec, instances), nil
}

// TestSetupPaidOncePerSweep is the paper's economics as a count: a sweep
// runs the handshake once per distinct (scheme, n, keySeed) among its
// instances that have one to run — not once per worker, per protocol or
// per driver family — at every worker count, and what it reports is what
// one worker, or no store at all, reports.
func TestSetupPaidOncePerSweep(t *testing.T) {
	spec := Spec{
		Name:        "setup-once",
		Protocols:   []string{ProtoChain, ProtoFDBA, ProtoSM, ProtoSmallRange, ProtoVector, ProtoNonAuth, ProtoEIG},
		Sizes:       []int{4, 7},
		Schemes:     []string{sig.SchemeToy, sig.SchemeEd25519},
		Adversaries: []string{AdvNone, AdvCrashRelay},
		SeedBase:    41,
		SeedCount:   3,
	}
	instances, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[protocol.SetupKey]bool)
	cacheable := 0
	for _, inst := range instances {
		if capabilities(inst.Protocol).CacheableSetup {
			cacheable++
			cells[protocol.SetupKey{Scheme: inst.Scheme, N: inst.N, KeySeed: inst.KeySeed}] = true
		}
	}
	if len(cells) != 4 || cacheable == len(instances) {
		t.Fatalf("spec has %d cells and %d/%d cacheable instances; the test wants 4 and a mix", len(cells), cacheable, len(instances))
	}

	uncached, err := Run(spec, 2, WithoutSetupCache())
	if err != nil {
		t.Fatal(err)
	}
	want, err := uncached.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		exec := NewExecutor()
		rep, err := RunWith(spec, onExecutor{workers, exec})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		hits, misses := exec.cache.Stats()
		if misses != len(cells) || hits != cacheable-len(cells) {
			t.Errorf("workers=%d: %d handshakes and %d hits; want %d (the distinct cells) and %d",
				workers, misses, hits, len(cells), cacheable-len(cells))
		}
		got, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: report differs from the one built without a store", workers)
		}
	}
}

// benchmarkGridSweep0 is the whole-stack benchmark's campaign_grid sweep 0
// at its default seed (benchmark/gen.go gridSpec), over the two schemes
// given.
func benchmarkGridSweep0(ed25519, hmac string) Spec {
	return Spec{
		Name:      "campaign_grid",
		Protocols: []string{ProtoChain, ProtoFDBA, ProtoSM, ProtoSmallRange, ProtoVector, ProtoNonAuth},
		Cases:     []Case{{N: 8, T: 2}, {N: 16, T: 5}},
		Schemes:   []string{ed25519, hmac},
		Adversaries: []string{AdvNone, AdvCrashRelay, AdvEquivocate,
			"coalition:size=2,behavior=equivocate,partition=even-odd",
			"coalition:size=1,behavior=delay,delay=2"},
		NetConds:  []string{"ideal", "latency=uniform-0-2,loss=0.05", "churn=2@2-4"},
		SeedBase:  1995,
		SeedCount: 4,
	}
}

// TestSweepSignsEachStatementOnce is the other half of the same economics:
// a sweep pins key material and never sets Value, so its instances ask the
// same keys for the same statements over and over, and the ed25519 signers
// of the store's cells compute only a fraction of what they are asked for.
// The spec is the whole-stack benchmark's campaign_grid sweep 0 at its
// default seed; requested is exact (it is the protocols' own sign count,
// handshake included), computed is bounded (perf/PR-22.md: 1,640 of
// 9,297 on one worker), and no byte of the report depends on either.
func TestSweepSignsEachStatementOnce(t *testing.T) {
	if testing.Short() || raceEnabled {
		// One worker leaves the detector nothing to find, and the sweep
		// without a store takes over a minute under it.
		t.Skip("runs a 1,100-instance sweep twice")
	}
	spec := benchmarkGridSweep0(sig.SchemeEd25519, sig.SchemeHMAC)
	exec := NewExecutor()
	rep, err := RunWith(spec, onExecutor{1, exec})
	if err != nil {
		t.Fatal(err)
	}
	requested, computed := exec.cache.SignCounts()
	if requested != 9297 || computed > 1800 {
		t.Errorf("sweep requested %d ed25519 signatures and computed %d; want 9297 and at most 1800", requested, computed)
	}
	got, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := Run(spec, 1, WithoutSetupCache())
	if err != nil {
		t.Fatal(err)
	}
	want, err := uncached.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("report differs from the one built without a store, where every signer is new and remembers nothing")
	}
}

// testCountingScheme is the benchmark's countsig.go in a test file: it
// forwards to a real scheme — keys, signatures, fingerprints and wire
// bytes are the inner scheme's — and counts the predicate tests that
// reach it. A verify-memo hit never does, so the count is the public-key
// verifications a sweep really performs.
type testCountingScheme struct {
	sig.Scheme
	tests atomic.Int64
}

func (s *testCountingScheme) Name() string { return "test-counted-" + s.Scheme.Name() }

func (s *testCountingScheme) Generate(rand io.Reader) (sig.Signer, error) {
	signer, err := s.Scheme.Generate(rand)
	if err != nil {
		return nil, err
	}
	return testCountingSigner{signer, &testCountingPred{signer.Predicate(), &s.tests}}, nil
}

func (s *testCountingScheme) ParsePredicate(data []byte) (sig.TestPredicate, error) {
	pred, err := s.Scheme.ParsePredicate(data)
	if err != nil {
		return nil, err
	}
	return &testCountingPred{pred, &s.tests}, nil
}

type testCountingSigner struct {
	sig.Signer
	pred *testCountingPred
}

func (s testCountingSigner) Predicate() sig.TestPredicate { return s.pred }

type testCountingPred struct {
	sig.TestPredicate
	tests *atomic.Int64
}

func (p *testCountingPred) Test(msg, sg []byte) bool {
	p.tests.Add(1)
	return p.TestPredicate.Test(msg, sg)
}

var countedEd25519, countedHMAC = new(testCountingScheme), new(testCountingScheme)

func init() {
	for name, s := range map[string]*testCountingScheme{sig.SchemeEd25519: countedEd25519, sig.SchemeHMAC: countedHMAC} {
		inner, err := sig.ByName(name)
		if err != nil {
			panic(err)
		}
		s.Scheme = inner
		sig.Register(s)
	}
}

// TestSweepVerifiesEachPrefixOnce is the verifying half of
// TestSweepSignsEachStatementOnce, as an exact count: the predicate tests
// the same sweep runs on one worker from an empty verify memo, handshakes
// included. A chain prefix is tested the first time any node of any
// instance meets it and never again, and SM and FDBA test nothing they
// are about to discard (perf/PR-23.md: 848 of each scheme before, when
// both verified every relay of a value they already held).
func TestSweepVerifiesEachPrefixOnce(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs a 1,100-instance sweep; one worker leaves the detector nothing to find")
	}
	sig.ResetVerifyMemo()
	countedEd25519.tests.Store(0)
	countedHMAC.tests.Store(0)
	spec := benchmarkGridSweep0(countedEd25519.Name(), countedHMAC.Name())
	if _, err := RunWith(spec, onExecutor{1, NewExecutor()}); err != nil {
		t.Fatal(err)
	}
	if ed, hm := countedEd25519.tests.Load(), countedHMAC.tests.Load(); ed != 581 || hm != 581 {
		t.Errorf("sweep ran %d ed25519 and %d hmac predicate tests; want 581 and 581", ed, hm)
	}
}

// TestBlocksHandOutEveryChunkOnce drives take as a pure function of the
// block state, with no goroutines: whoever asks, and in whatever order,
// each chunk is handed out exactly once; a worker gets its own block
// first, front to back, and after that the last chunk of whichever block
// has the most left.
func TestBlocksHandOutEveryChunkOnce(t *testing.T) {
	orders := map[string]func(step, workers int, rng *rand.Rand) int{
		"round-robin": func(step, workers int, _ *rand.Rand) int { return step % workers },
		"last-only":   func(_, workers int, _ *rand.Rand) int { return workers - 1 },
		"first-only":  func(int, int, *rand.Rand) int { return 0 },
		"random":      func(_, workers int, rng *rand.Rand) int { return rng.Intn(workers) },
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, chunks := range []int{8, 9, 10, 11, 23, 64, 65} {
			for name, order := range orders {
				b := newBlocks(chunks, workers)
				owner := make([]int, chunks)
				for w := range b.next {
					for c := b.next[w]; c < b.end[w]; c++ {
						owner[c] = w
					}
				}
				rng := rand.New(rand.NewSource(int64(workers*1000 + chunks)))
				handed := make([]int, chunks)
				for step := 0; ; step++ {
					w := order(step, workers, rng)
					before := blocks{append([]int(nil), b.next...), append([]int(nil), b.end...)}
					c, ok := b.take(w)
					if !ok {
						break
					}
					handed[c]++
					switch left := before.end[w] - before.next[w]; {
					case left > 0 && c != before.next[w]:
						t.Fatalf("%s w=%d/%d chunks=%d: own block starts at %d, got %d", name, w, workers, chunks, before.next[w], c)
					case left == 0:
						v := owner[c]
						if c != before.end[v]-1 {
							t.Fatalf("%s w=%d/%d chunks=%d: stole %d, not the tail %d of block %d", name, w, workers, chunks, c, before.end[v]-1, v)
						}
						for u := range before.next {
							if more := before.end[u] - before.next[u]; more > before.end[v]-before.next[v] ||
								(more == before.end[v]-before.next[v] && u < v) {
								t.Fatalf("%s w=%d/%d chunks=%d: stole from block %d though block %d had more left", name, w, workers, chunks, v, u)
							}
						}
					}
				}
				for c, n := range handed {
					if n != 1 {
						t.Fatalf("%s workers=%d chunks=%d: chunk %d handed out %d times", name, workers, chunks, c, n)
					}
				}
				for w := range b.next {
					if _, ok := b.take(w); ok {
						t.Fatalf("%s workers=%d chunks=%d: a chunk was left after take said done", name, workers, chunks)
					}
				}
			}
		}
	}
}

// TestChunkCuts: the chunks tile the instance order, none straddles a
// group, and none is longer than its share of the sweep — so a grid of
// short seed sweeps is cut at its group boundaries only, while one
// configuration swept over many seeds, a single group, still comes out as
// enough chunks that every worker's block holds some.
func TestChunkCuts(t *testing.T) {
	grid, err := Expand(toySpec())
	if err != nil {
		t.Fatal(err)
	}
	long := func(sizes ...int) []Instance {
		instances, err := Expand(Spec{Protocols: []string{ProtoChain}, Sizes: sizes,
			Schemes: []string{sig.SchemeToy}, SeedBase: 1, SeedCount: 1000 / len(sizes)})
		if err != nil {
			t.Fatal(err)
		}
		return instances
	}
	for _, tc := range []struct {
		name      string
		instances []Instance
		workers   int
		chunks    int
	}{
		{"grid of short sweeps", grid, 2, len(grid) / toySpec().SeedCount},
		{"one group of 1000 seeds", long(4), 8, 32},    // ceil(1000/32) = 32 a chunk: 31 full and one of 8
		{"two groups of 500 seeds", long(4, 5), 8, 32}, // 15 full and one of 20, twice
		{"one group, one worker", long(4), 1, 4},
		{"fewer instances than chunks", long(4)[:5], 2, 5},
		{"nothing", nil, 0, 0},
	} {
		cuts := chunkCuts(tc.instances, tc.workers)
		if len(cuts)-1 != tc.chunks || cuts[0] != 0 || cuts[len(cuts)-1] != len(tc.instances) {
			t.Errorf("%s: %d chunks over %v..%v, want %d over 0..%d", tc.name, len(cuts)-1, cuts[0], cuts[len(cuts)-1], tc.chunks, len(tc.instances))
			continue
		}
		longest := 0
		for c := 0; c+1 < len(cuts); c++ {
			longest = max(longest, cuts[c+1]-cuts[c])
			for i := cuts[c]; i < cuts[c+1]; i++ {
				if !tc.instances[i].sameGroup(tc.instances[cuts[c]]) {
					t.Errorf("%s: chunk %d mixes groups %s and %s", tc.name, c, tc.instances[cuts[c]].GroupKey(), tc.instances[i].GroupKey())
				}
			}
		}
		for c := 1; c+1 < len(cuts); c++ {
			if tc.instances[cuts[c]].sameGroup(tc.instances[cuts[c]-1]) && cuts[c]-cuts[c-1] != longest {
				t.Errorf("%s: chunks %d and %d split a group though the first holds %d, under the longest %d", tc.name, c-1, c, cuts[c]-cuts[c-1], longest)
			}
		}
		if tc.workers > 0 && longest > (len(tc.instances)+tc.workers*chunksPerWorker-1)/(tc.workers*chunksPerWorker) {
			t.Errorf("%s: a chunk of %d instances is more than a worker's share", tc.name, longest)
		}
		b := newBlocks(tc.chunks, tc.workers)
		for w := range b.next {
			if tc.chunks >= tc.workers && b.next[w] == b.end[w] {
				t.Errorf("%s: worker %d of %d starts with an empty block", tc.name, w, tc.workers)
			}
		}
	}
}

// TestLocalSkewedSweepFillsEverySlot puts every expensive instance in the
// last worker's block, so the others run dry and steal from it: whoever
// ran what, slot i holds instance i's result, and the results are the
// ones a single worker produces.
func TestLocalSkewedSweepFillsEverySlot(t *testing.T) {
	cheap, err := Expand(Spec{Protocols: []string{ProtoNonAuth}, Sizes: []int{4},
		Adversaries: []string{AdvNone, AdvCrashRelay, AdvEquivocate}, SeedBase: 3, SeedCount: 6})
	if err != nil {
		t.Fatal(err)
	}
	dear, err := Expand(Spec{Protocols: []string{ProtoVector, ProtoSM}, Sizes: []int{10},
		Schemes: []string{sig.SchemeEd25519}, SeedBase: 3, SeedCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	instances := append(cheap, dear...)
	for i := range instances {
		instances[i].Index = i
	}
	want, err := NewLocal(1).Execute(Spec{}, instances)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := NewLocal(workers).Execute(Spec{}, instances)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(instances) {
			t.Fatalf("workers=%d: %d results for %d instances", workers, len(got), len(instances))
		}
		for i, res := range got {
			if res.Index != i || res.Err != "" {
				t.Fatalf("workers=%d: slot %d holds index %d (err %q)", workers, i, res.Index, res.Err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ from one worker's", workers)
		}
	}
}

package sig

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// countingPred is a TestPredicate instrumented for the single-flight
// tests: it counts Test invocations, optionally blocks on gate, and
// returns a fixed verdict. The id must differ between instances with
// different verdicts — the memo keys by content digest, so two predicates
// with identical Bytes/Fingerprint are (correctly) treated as one key.
type countingPred struct {
	id      string
	verdict bool
	gate    chan struct{}
	calls   atomic.Int32
}

func (p *countingPred) Test(msg, sg []byte) bool {
	p.calls.Add(1)
	if p.gate != nil {
		<-p.gate
	}
	return p.verdict
}
func (p *countingPred) Bytes() []byte       { return []byte("counting-pred/" + p.id) }
func (p *countingPred) Fingerprint() string { return "counting/" + p.id }

// keyFor stands in for a prefix key in the tests that drive the memo
// directly: any 32 bytes that differ when the label does.
func keyFor(label string) memoKey { return sha256.Sum256([]byte(label)) }

// TestVerifyMemoSingleFlight pins the in-flight suppression: N goroutines
// missing on the same key run the underlying Test
// exactly once, for successes and for failures alike, with every waiter
// adopting the leader's verdict. Run under -race this also exercises the
// sharded locking.
func TestVerifyMemoSingleFlight(t *testing.T) {
	payload, sg := []byte("single-flight payload"), []byte("single-flight sig")
	for _, verdict := range []bool{true, false} {
		m := newVerifyMemo()
		key := keyFor(fmt.Sprintf("sf-%v", verdict))
		pred := &countingPred{id: fmt.Sprintf("sf-%v", verdict), verdict: verdict, gate: make(chan struct{})}
		const goroutines = 8
		results := make([]bool, goroutines)
		started := make(chan struct{}, goroutines)
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for i := 0; i < goroutines; i++ {
			go func(i int) {
				defer wg.Done()
				started <- struct{}{}
				results[i] = m.test(key, pred, payload, sg)
			}(i)
		}
		for i := 0; i < goroutines; i++ {
			<-started
		}
		// Give every goroutine time to reach the memo (register as leader
		// or block as waiter) before releasing the leader's Test.
		time.Sleep(100 * time.Millisecond)
		close(pred.gate)
		wg.Wait()
		if got := pred.calls.Load(); got != 1 {
			t.Errorf("verdict=%v: Test ran %d times for one concurrent key, want 1", verdict, got)
		}
		for i, r := range results {
			if r != verdict {
				t.Errorf("verdict=%v: goroutine %d got %v", verdict, i, r)
			}
		}
		if m.has(key) != verdict {
			t.Errorf("verdict=%v: has(key) = %v afterwards", verdict, !verdict)
		}
		// Failures must still not be memoized: a later call re-runs Test.
		if !verdict {
			pred.gate = nil
			if m.test(key, pred, payload, sg) {
				t.Error("failed verdict was memoized")
			}
			if got := pred.calls.Load(); got != 2 {
				t.Errorf("post-failure re-test: Test ran %d times total, want 2", got)
			}
		}
	}
}

// panicOncePred panics in its first Test — after saying it got there and
// being told to go on — and passes every later one.
type panicOncePred struct {
	entered, release chan struct{}
	calls            atomic.Int32
}

func (p *panicOncePred) Test(msg, sg []byte) bool {
	if p.calls.Add(1) == 1 {
		close(p.entered)
		<-p.release
		panic("predicate bug")
	}
	return true
}
func (p *panicOncePred) Bytes() []byte       { return []byte("panic-once-pred") }
func (p *panicOncePred) Fingerprint() string { return "panic-once" }

// TestVerifyMemoSurvivesPanickingPredicate: a Test that panics takes its
// in-flight entry with it. The panic reaches the leader's caller, a
// concurrent waiter on the same key returns instead of blocking on a
// leader that is gone, and the next lookup runs Test again.
func TestVerifyMemoSurvivesPanickingPredicate(t *testing.T) {
	m := newVerifyMemo()
	pred := &panicOncePred{entered: make(chan struct{}), release: make(chan struct{})}
	type outcome struct {
		ok       bool
		panicked any
	}
	lookup := func() <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			var o outcome
			defer func() {
				o.panicked = recover()
				ch <- o
			}()
			o.ok = m.test(keyFor("panic-once"), pred, []byte("payload"), []byte("sig"))
		}()
		return ch
	}
	await := func(ch <-chan outcome, who string) outcome {
		select {
		case o := <-ch:
			return o
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never returned: the panicking Test left its in-flight entry behind", who)
			return outcome{}
		}
	}
	leader := lookup()
	<-pred.entered
	waiter := lookup()
	// Let the waiter reach the in-flight entry. Should it be late instead
	// it finds no entry, runs the second Test itself and passes: every
	// assertion below holds in either order.
	time.Sleep(50 * time.Millisecond)
	close(pred.release)
	if o := await(leader, "the leader"); o.panicked == nil {
		t.Error("the predicate's panic did not reach the leader's caller")
	}
	if o := await(waiter, "the waiter"); o.panicked != nil {
		t.Errorf("the waiter panicked: %v", o.panicked)
	}
	if o := await(lookup(), "a later lookup"); !o.ok || o.panicked != nil {
		t.Errorf("a later lookup of the same key = %+v, want a pass", o)
	}
	if got := pred.calls.Load(); got != 2 {
		t.Errorf("Test ran %d times, want 2: the panic, then one pass that is memoized", got)
	}
}

// TestVerifyMemoShardedContention hammers the memo from many goroutines
// over many distinct keys; under -race this pins the shard locking, and
// the final assertions check hits land regardless of shard.
func TestVerifyMemoShardedContention(t *testing.T) {
	m := newVerifyMemo()
	pred := &countingPred{id: "contention", verdict: true}
	const keys = 256
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				if !m.test(keyFor(fmt.Sprintf("key-%d", i)), pred, []byte("payload"), []byte("sig")) {
					t.Errorf("goroutine %d key %d: test failed", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	filled := pred.calls.Load()
	for i := 0; i < keys; i++ {
		if !m.has(keyFor(fmt.Sprintf("key-%d", i))) || pred.calls.Load() != filled {
			t.Fatalf("key %d not memoized after concurrent fill", i)
		}
	}
}

// chainVerifyOutcome captures everything observable from one Verify call
// for the differential comparison.
type chainVerifyOutcome struct {
	signers []model.NodeID
	errText string
	unknown bool
	badSig  bool
}

func verifyOutcome(signers []model.NodeID, err error) chainVerifyOutcome {
	o := chainVerifyOutcome{signers: signers}
	if err != nil {
		o.errText = err.Error()
		o.unknown = errors.Is(err, ErrChainUnknownSigner)
		o.badSig = errors.Is(err, ErrChainBadSignature)
	}
	return o
}

func (o chainVerifyOutcome) equal(p chainVerifyOutcome) bool {
	if len(o.signers) != len(p.signers) {
		return false
	}
	for i := range o.signers {
		if o.signers[i] != p.signers[i] {
			return false
		}
	}
	return o.errText == p.errText && o.unknown == p.unknown && o.badSig == p.badSig
}

// TestChainVerifyMatchesSerial is the hand-picked half of the
// differential oracle: for well-formed and adversarial chains alike,
// Verify must return the same signers and the SAME error (sentinel and
// layer) as the serial reference implementation (verify_oracle_test.go),
// cold and warm — the memo must be unobservable.
// TestChainVerifyPrefixMemoMatchesSerial below is the exhaustive half.
func TestChainVerifyMatchesSerial(t *testing.T) {
	const hops = 6
	f := newChainFixture(t, hops)
	sender := model.NodeID(hops - 1)

	type scenario struct {
		name  string
		chain *Chain
		dir   Directory
	}
	tamper := func(layer int) *Chain {
		c := f.buildChain(t, []byte("differential"), hops).clone()
		c.sigs[layer][0] ^= 0x01
		return c
	}
	without := func(nodes ...model.NodeID) Directory {
		dir := make(MapDirectory)
		for n, p := range f.dir {
			dir[n] = p
		}
		for _, n := range nodes {
			delete(dir, n)
		}
		return dir
	}
	scenarios := []scenario{
		{"all-good", f.buildChain(t, []byte("differential"), hops), f.dir},
		{"bad-sig-layer0", tamper(0), f.dir},
		{"bad-sig-layer3", tamper(3), f.dir},
		{"bad-sig-outermost", tamper(hops - 1), f.dir},
		{"unknown-layer0", f.buildChain(t, []byte("differential"), hops), without(0)},
		{"unknown-layer2", f.buildChain(t, []byte("differential"), hops), without(2)},
		// Bad signature BELOW the unknown layer: serial reports the bad
		// signature first. Unknown BELOW the bad signature: serial never
		// reaches the bad layer.
		{"bad1-then-unknown4", func() *Chain { c := tamper(1); return c }(), without(4)},
		{"unknown1-then-bad4", func() *Chain { c := tamper(4); return c }(), without(1)},
	}

	for _, sc := range scenarios {
		want := verifyOutcome(sc.chain.verifySerial(sender, sc.dir))
		// Cold (every layer tested) then warm (the longest passing prefix
		// memoized).
		ResetVerifyMemo()
		gotCold := verifyOutcome(sc.chain.Verify(sender, sc.dir))
		gotWarm := verifyOutcome(sc.chain.Verify(sender, sc.dir))
		if !gotCold.equal(want) {
			t.Errorf("%s: cold Verify %+v != serial %+v", sc.name, gotCold, want)
		}
		if !gotWarm.equal(want) {
			t.Errorf("%s: warm Verify %+v != serial %+v", sc.name, gotWarm, want)
		}
	}
}

// TestNestedEncodingAfterVerifyMatchesSlowOracle: Verify leaves a chain
// off the wire without a nested-encoding cache, and what the following
// Extend computes for itself is the slow oracle's encoding.
func TestNestedEncodingAfterVerifyMatchesSlowOracle(t *testing.T) {
	f := newChainFixture(t, 5)
	c := f.buildChain(t, []byte("cache fill"), 5)
	parsed, err := UnmarshalChain(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parsed.Verify(4, f.dir); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if parsed.nested != nil {
		t.Error("Verify copied a nested encoding into the chain it accepted")
	}
	if !bytes.Equal(parsed.nestedEncoding(), slowEncodeNested(parsed)) {
		t.Error("nested encoding computed after Verify diverges from the slow oracle")
	}
	// The relay's hop end to end: extending the verified wire chain signs
	// the same statement as extending the chain it was marshalled from.
	viaWire, err := parsed.Extend(4, f.signers[0])
	if err != nil {
		t.Fatal(err)
	}
	direct, err := c.Extend(4, f.signers[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaWire.Marshal(), direct.Marshal()) {
		t.Error("extending a verified wire chain and extending its source chain disagree")
	}
}

// prefixOf returns the innermost p layers of c as a chain of their own,
// sharing c's bytes; its sender is the name c embeds for layer p-1.
func prefixOf(c *Chain, p int) *Chain {
	return &Chain{value: c.value, names: c.names[:p-1], sigs: c.sigs[:p]}
}

// passThroughPred counts the tests that reach a real predicate and keeps
// its identity (Bytes, Fingerprint), so its memo keys are the inner one's.
type passThroughPred struct {
	TestPredicate
	calls *atomic.Int32
}

func (p *passThroughPred) Test(msg, sg []byte) bool {
	p.calls.Add(1)
	return p.TestPredicate.Test(msg, sg)
}

// newCountingDir wraps every predicate of dir in a passThroughPred over
// one shared counter.
func newCountingDir(dir MapDirectory) (MapDirectory, *atomic.Int32) {
	calls := new(atomic.Int32)
	counted := make(MapDirectory, len(dir))
	for n, p := range dir {
		counted[n] = &passThroughPred{TestPredicate: p, calls: calls}
	}
	return counted, calls
}

// TestChainVerifyPrefixMemoMatchesSerial is the exhaustive differential
// for the prefix keys: a K=6 chain, every memoized prefix length p = 0…K
// (the uncorrupted chain's innermost p layers verified beforehand), every
// corrupted layer (none, 0…K-1) and every unknown-signer layer (none,
// 0…K-1). Verify must return verifySerial's signers or its exact error
// text, on the first call and on the second; and on a clean chain it must
// run exactly the K-p predicate tests above the memoized prefix.
func TestChainVerifyPrefixMemoMatchesSerial(t *testing.T) {
	const hops = 6
	f := newChainFixture(t, hops)
	sender := model.NodeID(hops - 1)
	good := f.buildChain(t, []byte("prefix differential"), hops)
	for p := 0; p <= hops; p++ {
		for bad := -1; bad < hops; bad++ {
			for unknown := -1; unknown < hops; unknown++ {
				chain := good
				if bad >= 0 {
					chain = good.clone()
					chain.sigs[bad][5] ^= 0x20
				}
				dir := make(MapDirectory, hops)
				for n, pred := range f.dir {
					if int(n) != unknown {
						dir[n] = pred
					}
				}
				counted, calls := newCountingDir(dir)
				want := verifyOutcome(chain.verifySerial(sender, dir))

				ResetVerifyMemo()
				if p > 0 {
					if _, err := prefixOf(good, p).Verify(model.NodeID(p-1), f.dir); err != nil {
						t.Fatalf("p=%d: warming the prefix: %v", p, err)
					}
				}
				first := verifyOutcome(chain.Verify(sender, counted))
				tests := calls.Load()
				second := verifyOutcome(chain.Verify(sender, counted))
				if !first.equal(want) || !second.equal(want) {
					t.Errorf("p=%d bad=%d unknown=%d: Verify %+v then %+v, serial %+v", p, bad, unknown, first, second, want)
				}
				if bad < 0 && unknown < 0 {
					if int(tests) != hops-p {
						t.Errorf("p=%d: clean chain ran %d predicate tests, want %d", p, tests, hops-p)
					}
					if again := calls.Load() - tests; again != 0 {
						t.Errorf("p=%d: re-verifying ran %d predicate tests, want 0", p, again)
					}
				}
			}
		}
	}
}

// TestChainVerifyFirstFailure pins which layer Verify blames when several
// fail: the first, cold and with the passing layers below it memoized —
// and it never runs a test above that layer.
func TestChainVerifyFirstFailure(t *testing.T) {
	good := func(id string) *countingPred { return &countingPred{id: "ff-good-" + id, verdict: true} }
	bad := func(id string) *countingPred { return &countingPred{id: "ff-bad-" + id, verdict: false} }
	cases := []struct {
		preds []*countingPred
		want  int // first failing layer, -1 for none
	}{
		{[]*countingPred{good("a")}, -1},
		{[]*countingPred{bad("a")}, 0},
		{[]*countingPred{good("a"), good("b"), good("c"), good("d")}, -1},
		{[]*countingPred{good("a"), bad("b"), good("c"), bad("d")}, 1},
		{[]*countingPred{bad("a"), good("b"), bad("c"), good("d")}, 0},
		{[]*countingPred{good("a"), good("b"), good("c"), bad("d")}, 3},
	}
	f := newChainFixture(t, 4)
	for ci, tc := range cases {
		k := len(tc.preds)
		c := f.buildChain(t, []byte(fmt.Sprintf("first failure %d", ci)), k)
		dir := make(MapDirectory, k)
		for i, p := range tc.preds {
			dir[model.NodeID(i)] = p
		}
		ResetVerifyMemo()
		for rep := 0; rep < 3; rep++ {
			_, err := c.Verify(model.NodeID(k-1), dir)
			switch {
			case tc.want < 0 && err != nil:
				t.Errorf("case=%d rep=%d: %v, want a pass", ci, rep, err)
			case tc.want >= 0:
				wantText := fmt.Sprintf("layer %d assigned to", tc.want)
				if !errors.Is(err, ErrChainBadSignature) || !strings.Contains(err.Error(), wantText) {
					t.Errorf("case=%d rep=%d: %v, want a bad signature at layer %d", ci, rep, err, tc.want)
				}
			}
		}
		for i, p := range tc.preds {
			want := int32(0)
			switch {
			case tc.want < 0 || i < tc.want:
				want = 1 // passed once, memoized for the two repeats
			case i == tc.want:
				want = 3 // failures are not memoized
			}
			if got := p.calls.Load(); got != want {
				t.Errorf("case=%d layer %d: Test ran %d times over three Verifies, want %d", ci, i, got, want)
			}
		}
	}
}

// TestVerifyMemoTwoGenerationBound: a shard never holds more than two
// generations however many keys pass through it, the newest generation's
// worth of keys is still there, and the oldest are gone.
func TestVerifyMemoTwoGenerationBound(t *testing.T) {
	m := newVerifyMemo()
	pred := &countingPred{id: "two-gen", verdict: true}
	// Every key lands in shard 0: the shard index is the key's first byte.
	keyOf := func(i int) memoKey { return memoKey{0, byte(i), byte(i >> 8), byte(i >> 16)} }
	const inserted = 3*memoGenerationLimit + 7
	for i := 0; i < inserted; i++ {
		if !m.test(keyOf(i), pred, nil, nil) {
			t.Fatalf("key %d: test failed", i)
		}
	}
	s := &m.shards[0]
	if len(s.cur) > memoGenerationLimit || len(s.prev) > memoGenerationLimit {
		t.Errorf("generations hold %d and %d keys, limit %d each", len(s.cur), len(s.prev), memoGenerationLimit)
	}
	for i := inserted - memoGenerationLimit; i < inserted; i++ {
		if !m.has(keyOf(i)) {
			t.Fatalf("key %d of the newest %d was dropped", i, memoGenerationLimit)
		}
	}
	if m.has(keyOf(0)) {
		t.Error("the oldest key outlived two rotations")
	}
	for i := 1; i < memoShardCount; i++ {
		if n := len(m.shards[i].cur) + len(m.shards[i].prev); n != 0 {
			t.Errorf("shard %d holds %d keys, every key was shard 0's", i, n)
		}
	}
}

// TestChainVerifyMemoBindsLowerPredicates is the prefix key's soundness
// under diverging directories (the G3 gap). Directories A and B agree on
// every predicate but the one for node 1, where B holds another that
// accepts; a chain A has verified top to bottom is a hit under B only up
// to layer 0, and B runs its own tests on every layer above. And where B
// holds a layer-0 predicate the signature fails, B rejects at layer 0
// whatever A has memoized.
func TestChainVerifyMemoBindsLowerPredicates(t *testing.T) {
	const hops = 5
	f := newChainFixture(t, hops)
	sender := model.NodeID(hops - 1)
	c := f.buildChain(t, []byte("diverging directories"), hops)
	ResetVerifyMemo()
	dirA, callsA := newCountingDir(f.dir)
	if _, err := c.Verify(sender, dirA); err != nil {
		t.Fatalf("under A: %v", err)
	}
	if got := callsA.Load(); got != hops {
		t.Fatalf("cold Verify under A ran %d tests, want %d", got, hops)
	}

	dirB, callsB := newCountingDir(f.dir)
	other := &countingPred{id: "b-holds-this-for-node-1", verdict: true}
	dirB[1] = other
	if _, err := c.Verify(sender, dirB); err != nil {
		t.Fatalf("under B: %v", err)
	}
	if got := other.calls.Load(); got != 1 {
		t.Errorf("B's own predicate for node 1 ran %d times, want 1: A's verdict on layer 1 answered for it", got)
	}
	if got := callsB.Load(); got != hops-2 {
		t.Errorf("B re-ran %d tests above the layer its directory differs on, want %d", got, hops-2)
	}
	if _, err := c.Verify(sender, dirA); err != nil || callsA.Load() != hops {
		t.Errorf("A's entries did not survive B's: err=%v, %d tests", err, callsA.Load())
	}

	// B holds a layer-0 predicate that rejects the signature.
	stranger := newChainFixture(t, 1)
	strict := MapDirectory{}
	for n, p := range f.dir {
		strict[n] = p
	}
	strict[0] = stranger.dir[0]
	_, err := c.Verify(sender, strict)
	if !errors.Is(err, ErrChainBadSignature) || !strings.Contains(err.Error(), "layer 0 ") {
		t.Errorf("under a directory whose node-0 predicate rejects: %v, want a bad signature at layer 0", err)
	}
}

// sliceKeyPred is a predicate a scheme outside this package might
// register: a struct VALUE holding its key in a slice, so the interface
// value cannot be a map key.
type sliceKeyPred struct {
	key   []byte
	inner TestPredicate
}

func (p sliceKeyPred) Test(msg, sg []byte) bool { return p.inner.Test(msg, sg) }
func (p sliceKeyPred) Bytes() []byte            { return p.key }
func (p sliceKeyPred) Fingerprint() string      { return "slice-key/" + p.inner.Fingerprint() }

// TestVerifyMemoAcceptsNonComparablePredicate: Chain.Verify used to panic
// ("hash of unhashable type") on the predicate digest cache's map read.
// Such a predicate verifies, is memoized by content like any other, and
// still rejects.
func TestVerifyMemoAcceptsNonComparablePredicate(t *testing.T) {
	const hops = 3
	f := newChainFixture(t, hops)
	c := f.buildChain(t, []byte("non-comparable"), hops)
	calls := new(atomic.Int32)
	dir := make(MapDirectory, hops)
	for n, p := range f.dir {
		dir[n] = sliceKeyPred{key: p.Bytes(), inner: &passThroughPred{TestPredicate: p, calls: calls}}
	}
	ResetVerifyMemo()
	for rep := 0; rep < 2; rep++ {
		if _, err := c.Verify(hops-1, dir); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
	if got := calls.Load(); got != hops {
		t.Errorf("two Verifies ran %d predicate tests, want %d: the second is a memo hit", got, hops)
	}
	tampered := c.clone()
	tampered.sigs[1][0] ^= 0x01
	if _, err := tampered.Verify(hops-1, dir); !errors.Is(err, ErrChainBadSignature) {
		t.Errorf("tampered chain: %v, want a bad signature", err)
	}
}

package sig

import (
	"bytes"
	"errors"
	"fmt"
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

// TestVerifyMemoSingleFlight pins the in-flight suppression: N goroutines
// missing on the same (pred, payload, sig) triple run the underlying Test
// exactly once, for successes and for failures alike, with every waiter
// adopting the leader's verdict. Run under -race this also exercises the
// sharded locking.
func TestVerifyMemoSingleFlight(t *testing.T) {
	payload, sg := []byte("single-flight payload"), []byte("single-flight sig")
	for _, verdict := range []bool{true, false} {
		m := newVerifyMemo()
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
				results[i] = m.test(pred, payload, sg)
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
			t.Errorf("verdict=%v: Test ran %d times for one concurrent triple, want 1", verdict, got)
		}
		for i, r := range results {
			if r != verdict {
				t.Errorf("verdict=%v: goroutine %d got %v", verdict, i, r)
			}
		}
		// Failures must still not be memoized: a later call re-runs Test.
		if !verdict {
			pred.gate = nil
			if m.test(pred, payload, sg) {
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
// concurrent waiter on the same triple returns instead of blocking on a
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
			o.ok = m.test(pred, []byte("payload"), []byte("sig"))
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
		t.Errorf("a later lookup of the same triple = %+v, want a pass", o)
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
				payload := []byte(fmt.Sprintf("payload-%d", i))
				if !m.test(pred, payload, []byte("sig")) {
					t.Errorf("goroutine %d key %d: test failed", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	filled := pred.calls.Load()
	for i := 0; i < keys; i++ {
		payload := []byte(fmt.Sprintf("payload-%d", i))
		if !m.test(pred, payload, []byte("sig")) || pred.calls.Load() != filled {
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

// TestChainVerifyBatchMatchesSerial is the batch-verification differential
// oracle: for well-formed and adversarial chains alike, the batched Verify
// must return the same signers and the SAME error (sentinel and layer) as
// the serial reference implementation (verify_oracle_test.go), cold and
// warm — the memo pre-pass must be unobservable.
func TestChainVerifyBatchMatchesSerial(t *testing.T) {
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
		// Serial reference, cold.
		ResetVerifyMemo()
		want := verifyOutcome(sc.chain.verifySerial(sender, sc.dir))
		// Batched, cold (every layer a residual check) then warm
		// (everything resolved by the memo pre-pass).
		ResetVerifyMemo()
		gotCold := verifyOutcome(sc.chain.Verify(sender, sc.dir))
		gotWarm := verifyOutcome(sc.chain.Verify(sender, sc.dir))
		if !gotCold.equal(want) {
			t.Errorf("%s: cold batch %+v != serial %+v", sc.name, gotCold, want)
		}
		if !gotWarm.equal(want) {
			t.Errorf("%s: warm batch %+v != serial %+v", sc.name, gotWarm, want)
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

// TestVerifyBatchFirstFailure pins VerifyBatch's result: the index of
// the first failing check, cold and with the passing checks memoized.
func TestVerifyBatchFirstFailure(t *testing.T) {
	good := &countingPred{id: "good", verdict: true}
	bad := &countingPred{id: "bad", verdict: false}
	mk := func(preds ...*countingPred) []Check {
		checks := make([]Check, len(preds))
		for i, p := range preds {
			checks[i] = Check{Pred: p, Payload: []byte(fmt.Sprintf("p%d", i)), Sig: []byte("s")}
		}
		return checks
	}
	cases := []struct {
		checks []Check
		want   int
	}{
		{nil, -1},
		{mk(good), -1},
		{mk(bad), 0},
		{mk(good, good, good, good), -1},
		{mk(good, bad, good, bad), 1},
		{mk(bad, good, bad, good), 0},
		{mk(good, good, good, bad), 3},
	}
	for ci, tc := range cases {
		for rep := 0; rep < 3; rep++ {
			if got := VerifyBatch(tc.checks); got != tc.want {
				t.Errorf("case=%d rep=%d: VerifyBatch=%d, want %d", ci, rep, got, tc.want)
			}
		}
	}
}

// TestVerifyBatchWarmAllocs pins the allocation budget of the fully
// memoized batch path: every check resolves in the memo without
// allocating.
func TestVerifyBatchWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	f := newChainFixture(t, 8)
	c := f.buildChain(t, []byte("warm batch"), 8)
	if _, err := c.Verify(7, f.dir); err != nil {
		t.Fatal(err)
	}
	var checks []Check
	for k := 0; k < 8; k++ {
		checks = append(checks, Check{Pred: f.dir[model.NodeID(k)], Payload: []byte("warm"), Sig: []byte("warm-sig")})
	}
	// Memoize the synthetic triples once (they fail crypto but that is
	// irrelevant: we pin the hit path, so use real verified triples).
	scratch := chainScratchPool.Get().(*chainScratch)
	chainScratchPool.Put(scratch)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Verify(7, f.dir); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state is 1 alloc (the returned signers slice) plus pool/GC
	// jitter headroom.
	if allocs > 4 {
		t.Errorf("warm batched Verify allocates %.1f times per op, want <= 4", allocs)
	}
}

package sig

import (
	"crypto/sha256"
	"io"
	"sync"
)

// Verified-signature memo.
//
// Every receiver of a chain re-verifies the same (predicate, payload,
// signature) triples: a relay verifies layers the previous relay already
// verified, the tail nodes all verify the identical disseminated chain,
// and the vector protocol multiplies that by n instances per round. The
// signatures are immutable and the predicates deterministic, so a triple
// that verified once verifies forever — memoizing successful checks turns
// the O(K) public-key verifies a hop performs on a K-layer chain into
// cache hits everywhere but the first verifier.
//
// Soundness: entries are keyed by SHA-256 digests of the predicate
// (scheme-qualified Fingerprint plus full canonical key bytes — the
// fingerprint alone is truncated, the key bytes alone lack scheme domain
// separation; together a collision needs same scheme AND same key), the
// payload, and the signature. Only SUCCESSFUL verifications are stored.
// Equal scheme + key bytes parse to the same verification function, so
// replaying a memoized triple is exactly re-presenting a signature that
// already passed the same predicate; no forgery becomes acceptable that
// Test itself would not accept (up to SHA-256 collisions, which the
// schemes' own security already assumes away). Failures are deliberately
// not cached so a predicate swap mid-run (tests do this) cannot mask a
// later success.
//
// Keying by content digest rather than predicate pointer identity is
// what makes cross-node hits real: under local authentication every node
// parses its own TestPredicate instance from the key-distribution wire
// bytes, so the n tail receivers of one disseminated chain hold n
// different pointers to the same key. (Hits span nodes only when they
// share a process, as the simulator's do; separate OS processes keep
// separate memos.)
//
// Concurrency: the memo is sharded by key digest, each shard under its
// own mutex, so parallel verifiers (campaign workers, service shards) do
// not serialize on one lock. Misses are single-flighted per
// key: the first goroutine to miss runs pred.Test and every concurrent
// miss on the same key waits for and adopts its verdict. Adoption is
// sound for failures too — the key pins scheme AND key bytes AND payload
// AND signature, and every scheme's Test is a deterministic function of
// exactly those, so two goroutines holding the same key would compute
// the same verdict. (Failures are still not MEMOIZED; only concurrent
// waiters observe them.)
//
// All tables are bounded. Each shard's memo is two-generation: inserts go
// to the current generation, and when it fills the previous generation
// is dropped and the current one takes its place — lookups consult both,
// so the hot working set survives rotation. The per-instance predicate
// digest cache is cleared wholesale when it exceeds its limit, so
// Monte-Carlo workloads that mint predicates forever cannot pin them all
// in memory.

// memoKey identifies one verification by content digests alone; it
// retains no pointers.
type memoKey struct {
	pred    [sha256.Size]byte
	payload [sha256.Size]byte
	sig     [sha256.Size]byte
}

// memoShardCount shards the memo by signature digest (a power of two).
// memoGenerationLimit bounds each shard generation so the memo holds at
// most 2*memoShardCount*memoGenerationLimit entries — the same total
// bound the pre-sharding single-map memo had. predCacheLimit bounds the
// predicate digest cache (and therefore how many predicate instances it
// retains).
const (
	memoShardCount      = 16
	memoGenerationLimit = (1 << 14) / memoShardCount
	predCacheLimit      = 1 << 12
)

// inflightTest is one in-progress pred.Test: the leader closes done after
// publishing ok (still false if Test panicked), and every waiter that
// found the key in the shard's inflight table adopts ok instead of
// re-running the test.
type inflightTest struct {
	done chan struct{}
	ok   bool
}

type memoShard struct {
	mu       sync.Mutex
	cur      map[memoKey]struct{}
	prev     map[memoKey]struct{}
	inflight map[memoKey]*inflightTest
}

type verifyMemo struct {
	shards [memoShardCount]memoShard
	predMu sync.RWMutex
	preds  map[TestPredicate][sha256.Size]byte
}

func newVerifyMemo() *verifyMemo {
	m := &verifyMemo{preds: make(map[TestPredicate][sha256.Size]byte)}
	for i := range m.shards {
		m.shards[i].cur = make(map[memoKey]struct{})
	}
	return m
}

var chainVerifyMemo = newVerifyMemo()

// computePredDigest derives the scheme-separated predicate digest.
func computePredDigest(pred TestPredicate) [sha256.Size]byte {
	h := sha256.New()
	io.WriteString(h, pred.Fingerprint())
	h.Write([]byte{0})
	h.Write(pred.Bytes())
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// digestOf returns the predicate's memo digest, cached per instance so
// the steady-state cost is one read-locked map read per layer.
func (m *verifyMemo) digestOf(pred TestPredicate) [sha256.Size]byte {
	m.predMu.RLock()
	d, ok := m.preds[pred]
	m.predMu.RUnlock()
	if ok {
		return d
	}
	d = computePredDigest(pred)
	m.predMu.Lock()
	if len(m.preds) >= predCacheLimit {
		m.preds = make(map[TestPredicate][sha256.Size]byte, predCacheLimit)
	}
	m.preds[pred] = d
	m.predMu.Unlock()
	return d
}

// shardOf picks the shard for a key. The signature digest is already
// uniform, so its low bits are the shard index.
func (m *verifyMemo) shardOf(key *memoKey) *memoShard {
	return &m.shards[key.sig[0]&(memoShardCount-1)]
}

// test is the memoized counterpart of pred.Test.
func (m *verifyMemo) test(pred TestPredicate, payload, sg []byte) bool {
	key := memoKey{pred: m.digestOf(pred), payload: sha256.Sum256(payload), sig: sha256.Sum256(sg)}
	s := m.shardOf(&key)
	s.mu.Lock()
	if _, ok := s.cur[key]; ok {
		s.mu.Unlock()
		return true
	}
	if _, ok := s.prev[key]; ok {
		s.mu.Unlock()
		return true
	}
	if fl, ok := s.inflight[key]; ok {
		// Another goroutine is running this exact test; adopt its verdict.
		s.mu.Unlock()
		<-fl.done
		return fl.ok
	}
	fl := &inflightTest{done: make(chan struct{})}
	if s.inflight == nil {
		s.inflight = make(map[memoKey]*inflightTest)
	}
	s.inflight[key] = fl
	s.mu.Unlock()

	// Deferred, so a predicate that panics (the service, the campaign
	// watchdog and the sched worker all recover and carry on) still retires
	// its entry: waiters see a failure, nothing is memoized, the panic
	// reaches this caller — and the next lookup of the triple runs Test
	// again instead of waiting forever on a leader that is gone.
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		if fl.ok {
			if len(s.cur) >= memoGenerationLimit {
				s.prev = s.cur
				s.cur = make(map[memoKey]struct{}, memoGenerationLimit)
			}
			s.cur[key] = struct{}{}
		}
		s.mu.Unlock()
		close(fl.done)
	}()
	fl.ok = pred.Test(payload, sg)
	return fl.ok
}

// reset drops every memoized verification. The predicate digest cache
// survives: digests are pure functions of their predicates, so keeping
// them is always sound, and reset exists to measure cold VERIFICATION —
// a long-lived process has its peers' digests cached even when every
// chain is new. The cache stays bounded by predCacheLimit regardless.
// In-flight tests are untouched; they complete into the fresh maps.
func (m *verifyMemo) reset() {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		s.cur = make(map[memoKey]struct{})
		s.prev = nil
		s.mu.Unlock()
	}
}

// ResetVerifyMemo drops all memoized chain-signature verifications.
// Benchmarks call it to measure cold verification; production code never
// needs to.
func ResetVerifyMemo() { chainVerifyMemo.reset() }

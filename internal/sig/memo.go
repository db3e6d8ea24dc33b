package sig

import (
	"crypto/sha256"
	"io"
	"reflect"
	"sync"
)

// Verified-prefix memo.
//
// Every receiver of a chain re-verifies what another already verified: a
// relay the layers the previous relay checked, the tail nodes all the
// same disseminated chain, the vector protocol n instances of both per
// round. Signatures are immutable and predicates deterministic, so what
// verified once verifies forever, and the memo remembers verified chain
// PREFIXES, one 32-byte key per layer:
//
//	key_0 = SHA-256(0x00 ‖ len‖value ‖ predDigest_0 ‖ len‖sig_0)
//	key_k = SHA-256(0x01 ‖ key_{k-1} ‖ name_{k-1} ‖ predDigest_k ‖ len‖sig_k)
//
// key_k in the memo means "layers 0…k of this value, under these names
// and signatures, passed exactly these predicates". Chain.Verify derives
// the keys bottom-up (one hash of ~140 bytes per ed25519 layer) and asks
// for the top one: a hit answers for the whole chain after one lock and
// one map probe, and no signature payload is built. On a miss it walks
// down to the longest memoized prefix and runs pred.Test only on the
// layers above it, in order, inserting each layer's key as it passes.
//
// What a key commits to: the payload layer k signs is a function of the
// value, names 0…k-1 and signatures 0…k-1, all of which key_{k-1} and
// name_{k-1} pin by induction; so key_k pins layer k's (predicate,
// payload, signature) triple and the triple of every layer below.
// predDigest is SHA-256 over the scheme-qualified Fingerprint, a zero
// byte and the full canonical key bytes — the fingerprint alone is
// truncated, the key bytes alone lack scheme separation; together a
// collision needs same scheme AND same key. The encoding is injective:
// the domain byte keeps a chosen value from posing as an upper layer's
// preimage, and within a layer every field has a fixed width (key,
// digest, name) or carries its length (value, signature).
//
// Soundness: only SUCCESSFUL verifications are stored, and key_k is
// inserted only by a Verify that held layers 0…k-1 verified — by its own
// tests or by key_{k-1}'s entry. Equal scheme + key bytes parse to the
// same verification function, so a hit replays signatures that already
// passed the same predicates over the same payloads; nothing becomes
// acceptable that Test itself would not accept (up to SHA-256 collisions,
// which the schemes' own security already assumes away). Failures are not
// cached, so a predicate swap mid-run (tests do this) cannot mask a later
// success. An evicted key_{k-1} under a surviving key_k costs a re-test
// at most: each entry's meaning is self-contained.
//
// Binding the lower layers' predicates is strictly tighter than keying
// layer by layer. Two correct nodes may hold different predicates for a
// FAULTY node (the G3 gap): a chain one has verified is no hit for the
// other from the first layer their directories differ on, and every layer
// above it — correct nodes' included, which a per-triple memo shared — is
// tested again under the second node's own predicates. That is the whole
// cost, paid only after a corrupted key distribution.
//
// Keying by content digest, not predicate pointer, is what makes
// cross-node hits real: every node parses its own TestPredicate instance
// from the key-distribution wire bytes, so the n receivers of one chain
// hold n pointers to the same key. (Hits span nodes only when they share
// a process, as the simulator's do.)
//
// Concurrency: the memo is sharded by key, each shard under its own
// mutex. Misses are single-flighted per key: the first goroutine to miss
// runs pred.Test and every concurrent miss on the same key adopts its
// verdict — failures too, since the key pins everything Test is a
// deterministic function of (they are still not MEMOIZED).
//
// All tables are bounded. Each shard is two-generation: inserts go to the
// current generation, and when it fills the previous one is dropped and
// the current one takes its place — lookups consult both, so the hot
// working set survives rotation. The predicate digest cache is cleared
// wholesale at its limit.

// memoKey identifies one verified chain prefix; it retains no pointers.
type memoKey [sha256.Size]byte

// prefixKey derives key_k of c for a layer-k predicate with digest pd,
// from below = key_{k-1} (unread at k = 0). The preimage is assembled in
// buf, which is returned for reuse.
func (c *Chain) prefixKey(buf []byte, k int, below *memoKey, pd [sha256.Size]byte) (memoKey, []byte) {
	if k == 0 {
		buf = AppendBytes(append(buf[:0], 0x00), c.value)
	} else {
		buf = append(append(buf[:0], 0x01), below[:]...)
		buf = AppendInt(buf, int(c.names[k-1]))
	}
	buf = AppendBytes(append(buf, pd[:]...), c.sigs[k])
	return sha256.Sum256(buf), buf
}

// memoShardCount shards the memo by key (a power of two).
// memoGenerationLimit bounds each shard generation so the memo holds at
// most 2*memoShardCount*memoGenerationLimit entries. predCacheLimit
// bounds the predicate digest cache (and therefore how many predicate
// instances it retains).
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

// holds reports whether key is in either generation; the caller holds mu.
func (s *memoShard) holds(key memoKey) bool {
	if _, ok := s.cur[key]; ok {
		return true
	}
	_, ok := s.prev[key]
	return ok
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
// the steady-state cost is one read-locked map read per layer. A
// predicate of a non-comparable dynamic type (a struct value holding a
// slice — Register is public) cannot key a map, so its digest is computed
// every time; the test costs two loads and has to come first, because a
// map read with an unhashable key panics even when the key is absent.
func (m *verifyMemo) digestOf(pred TestPredicate) [sha256.Size]byte {
	if !reflect.TypeOf(pred).Comparable() {
		return computePredDigest(pred)
	}
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

// shardOf picks a key's shard: SHA-256 output is uniform, so by low bits.
func (m *verifyMemo) shardOf(key *memoKey) *memoShard {
	return &m.shards[key[0]&(memoShardCount-1)]
}

// has reports whether the prefix key names is memoized as verified.
func (m *verifyMemo) has(key memoKey) bool {
	s := m.shardOf(&key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.holds(key)
}

// test is the memoized counterpart of pred.Test for the top layer of the
// prefix key names. The caller vouches for the layers below it; key is
// inserted when — and only when — the test passes.
func (m *verifyMemo) test(key memoKey, pred TestPredicate, payload, sg []byte) bool {
	s := m.shardOf(&key)
	s.mu.Lock()
	if s.holds(key) {
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
	// reaches this caller — and the next lookup of the key runs Test
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
// chain is new. In-flight tests complete into the fresh maps.
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

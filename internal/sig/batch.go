package sig

import "sync"

// Batch signature verification.
//
// A node rarely checks one signature at a time: verifying a K-layer chain
// checks K triples, and an ingest round checks every flooded chain at
// once. VerifyBatch takes the whole set, dedups it against the
// verified-signature memo first (the common steady state is every triple
// memoized — no public-key work at all), and runs the residual checks in
// order on the caller's goroutine. Callers that verify concurrently
// (campaign workers, service shards) meet in the memo, whose per-key
// single-flight keeps them from duplicating a test that appears in more
// than one batch.

// Check is one pending signature verification: Pred must accept Sig over
// Payload.
type Check struct {
	Pred    TestPredicate
	Payload []byte
	Sig     []byte
}

// batchScratch recycles the per-batch bookkeeping slices so the warm path
// (everything memoized) allocates nothing.
type batchScratch struct {
	keys []memoKey
	miss []int
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// VerifyBatch checks every triple and returns the index of the first
// failing check, or -1 if all pass. Checks already in the verified memo
// are skipped; the rest run one by one in order.
func VerifyBatch(checks []Check) int {
	s := batchScratchPool.Get().(*batchScratch)
	bad := verifyBatch(checks, s)
	batchScratchPool.Put(s)
	return bad
}

func verifyBatch(checks []Check, s *batchScratch) int {
	memo := chainVerifyMemo
	if len(checks) == 1 {
		// One check: the pre-pass bookkeeping is pure overhead.
		c := &checks[0]
		if memo.test(c.Pred, c.Payload, c.Sig) {
			return -1
		}
		return 0
	}
	if cap(s.keys) < len(checks) {
		s.keys = make([]memoKey, len(checks))
		s.miss = make([]int, 0, len(checks))
	}
	keys := s.keys[:len(checks)]
	miss := s.miss[:0]
	// Dedup pre-pass: hash every triple, split memo hits from residuals.
	for i := range checks {
		c := &checks[i]
		keys[i] = memo.keyOf(c.Pred, c.Payload, c.Sig)
		if !memo.hit(keys[i]) {
			miss = append(miss, i)
		}
	}
	for _, idx := range miss {
		c := &checks[idx]
		if !memo.testKey(keys[idx], c.Pred, c.Payload, c.Sig) {
			return idx
		}
	}
	return -1
}

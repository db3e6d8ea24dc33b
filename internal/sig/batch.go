package sig

// Batch signature verification.
//
// A node rarely checks one signature at a time: verifying a K-layer chain
// checks K triples, and an ingest round checks every flooded chain at
// once. VerifyBatch takes the whole set and runs it in order through the
// verified-signature memo on the caller's goroutine — the common steady
// state is every triple memoized, no public-key work at all. Callers that
// verify concurrently (campaign workers, service shards) meet in the
// memo, whose per-key single-flight keeps them from duplicating a test
// that appears in more than one batch.

// Check is one pending signature verification: Pred must accept Sig over
// Payload.
type Check struct {
	Pred    TestPredicate
	Payload []byte
	Sig     []byte
}

// VerifyBatch checks every triple in order and returns the index of the
// first failing check, or -1 if all pass. Checks already in the verified
// memo cost their hashing only.
func VerifyBatch(checks []Check) int {
	for i := range checks {
		c := &checks[i]
		if !chainVerifyMemo.test(c.Pred, c.Payload, c.Sig) {
			return i
		}
	}
	return -1
}

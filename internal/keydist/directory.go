// Package keydist implements the paper's key-distribution protocol
// (Borcherding 1995, Fig. 1), which establishes *local authentication*:
//
//	Protocol for each node P_i:
//	  generate a secret key S_i and an appropriate test predicate T_i
//	  send T_i to all other nodes
//	  for each received T_j:
//	    select a random number r_j
//	    send {P_i, P_j, r_j} to P_j
//	  for each received {P_j, P_i, r} from P_j:
//	    send {P_j, P_i, r}_{S_i} to P_j
//	  for each received {P_i, P_j, r}_{S_j} from P_j:
//	    if T_j({P_i, P_j, r}) = true and r = r_j:
//	      accept T_j as belonging to P_j
//
// The protocol needs 3·n·(n−1) messages in 3 communication rounds and
// works with an arbitrary number of arbitrarily faulty nodes. It yields
// assignment properties G1 and G2 (paper Theorem 2): no faulty node can
// claim a correct node's key, and every correct node's key is accepted by
// all correct nodes. Property G3 (globally consistent assignment) does NOT
// hold — faulty nodes may distribute different predicates to different
// correct nodes — but Theorem 4 shows such behaviour is discovered once
// all protocol messages are chain-signed.
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - Directory.AgreesWith: G2 node by node across two directories, as the unit tests check it.
//   - fact.Detail: a recorded deviation's text, formatted only when read; no artifact prints one, TestDiscoveryTextPinned does.
package keydist

import (
	"sync"

	"repro/internal/model"
	"repro/internal/sig"
)

// Directory is one node's accepted mapping from peers to test predicates —
// the local-authentication state that the key-distribution protocol
// builds. Under local authentication each node owns a private Directory;
// directories at different correct nodes agree on the predicates of
// correct nodes (G2) but may disagree about faulty ones.
//
// Directory implements sig.Directory, so chain-signature verification in
// the failure-discovery protocols consumes it directly, through its
// handshake's verify memo. It is safe for concurrent use.
type Directory struct {
	mu    sync.RWMutex
	preds map[model.NodeID]sig.TestPredicate
	memo  *sig.VerifyMemo
}

var _ sig.Directory = (*Directory)(nil)

// VerifyMemo returns the memo Chain.Verify uses for this directory: its
// handshake's, shared with that handshake's other nodes.
func (d *Directory) VerifyMemo() *sig.VerifyMemo { return d.memo }

// Accept records pred as belonging to node, as the final step of the
// challenge/response exchange. Accepting a second predicate for the same
// node replaces the first; callers that care (they all should) detect the
// duplicate beforehand and treat it as a discovered failure.
func (d *Directory) Accept(node model.NodeID, pred sig.TestPredicate) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.preds[node] = pred
}

// PredicateOf implements sig.Directory.
func (d *Directory) PredicateOf(node model.NodeID) (sig.TestPredicate, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.preds[node]
	return p, ok
}

// Len returns the number of accepted predicates.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.preds)
}

// AgreesWith reports whether two directories accepted the same predicate
// for the given node (or both accepted none): G2 for a correct node, the
// G3 gap for a faulty one.
func (d *Directory) AgreesWith(other *Directory, node model.NodeID) bool {
	p1, ok1 := d.PredicateOf(node)
	p2, ok2 := other.PredicateOf(node)
	if ok1 != ok2 {
		return false
	}
	if !ok1 {
		return true
	}
	return p1.Fingerprint() == p2.Fingerprint()
}

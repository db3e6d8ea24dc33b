package ba

import (
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/model"
	"repro/internal/sig"
)

// SM(t) — the signed-messages algorithm of Lamport, Shostak & Pease —
// tolerates any number t < n of faults given authentication, at O(n²)
// messages even in failure-free runs. The paper's pitch is precisely that
// Failure Discovery needs only O(n) messages per run once (local)
// authentication exists; experiment E8 measures the gap, and experiment
// E11 runs SM(t) under *local* authentication to exhibit the G3 attack
// that the paper's §6 leaves open.
//
// Algorithm (correct node):
//
//	round 1: the sender signs its value and broadcasts {v}_{S_0};
//	round r: on receiving a value v with a valid chain of r−1 distinct
//	         signatures starting with the sender, and v not yet in V:
//	         add v to V and, if r−1 ≤ t, relay the chain extended with our
//	         own signature to every node not already among the signers;
//	after round t+1: decide the unique element of V, or the default when
//	         V is empty or has several elements.
//
// The relay rule is the signed flood FDBA's fallback also runs
// (flood.go); SM brings its admit rule — the chain starts at the sender,
// and its value joins V — and keeps V as the flood's held set.
type SMNode struct {
	id    model.NodeID
	cfg   model.Config
	flood signedFlood

	// value is the sender's initial value (sender only).
	value []byte

	decision Decision
	finished bool
}

// SMOption configures an SMNode.
type SMOption func(*SMNode)

// WithSMValue sets the sender's initial value.
func WithSMValue(v []byte) SMOption {
	return func(n *SMNode) { n.value = append([]byte(nil), v...) }
}

// NewSMNode builds a correct SM(t) participant. The directory determines
// the authentication regime: a shared MapDirectory models global
// authentication, per-node keydist directories model local authentication.
func NewSMNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, opts ...SMOption) (*SMNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !id.Valid(cfg.N) {
		return nil, fmt.Errorf("ba: node id %v out of range for n=%d", id, cfg.N)
	}
	if signer == nil || dir == nil {
		return nil, fmt.Errorf("ba: SM node needs a signer and a directory")
	}
	n := &SMNode{id: id, cfg: cfg, flood: newSignedFlood(cfg, id, signer, dir, model.KindSigned)}
	n.decision.Node = id
	for _, opt := range opts {
		opt(n)
	}
	if id == Sender && n.value == nil {
		return nil, fmt.Errorf("ba: sender needs WithSMValue")
	}
	return n, nil
}

// Decision returns the node's decision after the run completes.
func (n *SMNode) Decision() Decision { return n.decision }

// Outcome implements fd.Outcomer, letting SM(t) runs flow through
// core.Cluster and the protocol driver registry. SM has no discovery
// concept: the outcome is the decision alone.
func (n *SMNode) Outcome() model.Outcome {
	return model.Outcome{Node: n.id, Decided: n.finished, Value: n.decision.Value}
}

// Finished implements sim.Finisher.
func (n *SMNode) Finished() bool { return n.finished }

// SMEngineRounds returns the lockstep rounds an SM(t) run needs: t+1
// communication rounds plus the decision step.
func SMEngineRounds(t int) int { return t + 2 }

// Step implements the sim Process contract. A chain with k signatures
// was sent in round k, so round r's inbox is hop-round r−1.
func (n *SMNode) Step(round int, received []model.Message) []model.Message {
	out := n.flood.relay(nil, round-1, received, n.admit)
	switch {
	case round == 1 && n.id == Sender:
		n.flood.held[string(n.value)] = true
		out = n.flood.open(out, n.value)
	case round == SMEngineRounds(n.cfg.T):
		n.decide()
		n.finished = true
	}
	return out
}

// admit is SM's admit rule: a chain must start at the sender, and its
// value — a parsed chain's, which nothing writes — joins V in place.
func (n *SMNode) admit(value []byte, signers []model.NodeID) bool {
	if signers[0] != Sender {
		return false
	}
	n.flood.held[unsafe.String(unsafe.SliceData(value), len(value))] = true
	return true
}

// decide applies choice(V): the unique value (aliased: it is read-only),
// or the default.
func (n *SMNode) decide() {
	if len(n.flood.held) == 1 {
		for v := range n.flood.held {
			n.decision.Value = unsafe.Slice(unsafe.StringData(v), len(v))
			return
		}
	}
	n.decision.Value = DefaultValue
}

// ValueSet returns the node's extracted set V in sorted order, for
// experiment assertions.
func (n *SMNode) ValueSet() []string {
	out := make([]string, 0, len(n.flood.held))
	for v := range n.flood.held {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

package ba

import (
	"fmt"
	"sort"

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
// The signature chains reuse package sig's chain messages, so assignee
// names ride along exactly as in the failure-discovery protocol.
type SMNode struct {
	id     model.NodeID
	cfg    model.Config
	signer sig.Signer
	dir    sig.Directory

	// value is the sender's initial value (sender only).
	value []byte
	// values is the extracted set V, keyed by value bytes.
	values map[string]bool

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
	n := &SMNode{
		id:     id,
		cfg:    cfg,
		signer: signer,
		dir:    dir,
		values: make(map[string]bool),
	}
	n.decision.Node = id
	for _, opt := range opts {
		opt(n)
	}
	if id == Sender && n.value == nil {
		return nil, fmt.Errorf("ba: sender needs WithSMValue")
	}
	return n, nil
}

// Decision implements Decider.
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

// SMMessagesFailureFree returns SM(t)'s failure-free message count: the
// sender's broadcast plus one relay per receiver when t ≥ 1.
func SMMessagesFailureFree(n, t int) int {
	if t == 0 {
		return n - 1
	}
	return (n - 1) + (n-1)*(n-2)
}

// Step implements the sim Process contract.
func (n *SMNode) Step(round int, received []model.Message) []model.Message {
	t := n.cfg.T
	var out []model.Message
	for _, m := range received {
		if m.Kind != model.KindSigned {
			continue // not a protocol message; SM ignores it
		}
		out = append(out, n.handle(round, m)...)
	}
	switch {
	case round == 1 && n.id == Sender:
		n.values[string(n.value)] = true
		chain, err := sig.NewChain(n.value, n.signer)
		if err != nil {
			panic(fmt.Sprintf("ba: %v signing value: %v", n.id, err))
		}
		out = model.AppendBroadcast(out, n.cfg.N, n.id, model.KindSigned, chain.Marshal())
	case round == SMEngineRounds(t):
		n.decide()
		n.finished = true
	}
	return out
}

// handle processes one signed message per the SM acceptance rule.
func (n *SMNode) handle(round int, m model.Message) []model.Message {
	t := n.cfg.T
	// "If v ∉ V_i": a held value is discarded whatever signs it — ask first.
	if v, ok := sig.PeekChainValue(m.Payload); !ok || n.values[string(v)] {
		return nil
	}
	chain, err := sig.UnmarshalChain(m.Payload)
	if err != nil {
		return nil // malformed: SM silently ignores (no discovery here)
	}
	// A chain with k signatures was sent in round k, so it must arrive in
	// round k+1. Late chains are ignored; this is what defeats
	// last-moment value injection.
	k := chain.Len()
	if k != round-1 || k < 1 || k > t+1 {
		return nil
	}
	signers, err := chain.Verify(m.From, n.dir)
	if err != nil {
		return nil // unverifiable under OUR directory: ignore
	}
	// Signers must be distinct, start at the sender, and not include us
	// (we never relay to ourselves).
	if signers[0] != Sender || !distinctValid(signers, n.cfg.N) || containsID(signers, n.id) {
		return nil
	}
	n.values[string(chain.Value())] = true
	if k > t {
		return nil // full chain; everyone correct already has it
	}
	ext, err := chain.Extend(m.From, n.signer)
	if err != nil {
		panic(fmt.Sprintf("ba: %v extending chain: %v", n.id, err))
	}
	payload := ext.Marshal()
	out := make([]model.Message, 0, n.cfg.N-1-len(signers))
	for q := 0; q < n.cfg.N; q++ {
		to := model.NodeID(q)
		if to == n.id || containsID(signers, to) {
			continue
		}
		out = append(out, model.Message{To: to, Kind: model.KindSigned, Payload: payload})
	}
	return out
}

// decide applies choice(V): the unique value, or the default.
func (n *SMNode) decide() {
	if len(n.values) == 1 {
		for v := range n.values {
			n.decision.Value = []byte(v)
			return
		}
	}
	n.decision.Value = DefaultValue
}

// ValueSet returns the node's extracted set V in sorted order, for
// experiment assertions.
func (n *SMNode) ValueSet() []string {
	out := make([]string, 0, len(n.values))
	for v := range n.values {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

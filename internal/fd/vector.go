package fd

import (
	"errors"

	"repro/internal/model"
	"repro/internal/sig"
)

// Vector failure discovery: n chain-protocol instances running in the
// SAME rounds, one per sender, each with the role layout rotated so that
// instance s's chain is P_s → P_{s+1} → … → P_{s+t} → rest (indices
// mod n). Every node ends with a VECTOR of outcomes — one proposed value
// (or discovery) per peer — the failure-discovery analogue of
// interactive consistency.
//
// This is exactly the paper's amortization story exercised in parallel:
// local authentication is established once, then n simultaneous
// failure-discovery instances cost n·(n−1) messages and t+1 communication
// rounds in failure-free runs (versus n·(t+1)(n−1) for n baseline runs).
//
// Wire format: each message carries (instance, chain bytes) so the
// instances stay unambiguous while sharing rounds.

// VectorNode is a correct participant in all n instances at once: its
// seat in instance s is the Fig. 2 run whose origin is P_s.
type VectorNode struct {
	params chainParams
	// inst[s] is this node's seat in the instance whose sender is s.
	inst []chainRun

	finished bool
}

// NewVectorNode builds a correct participant proposing value.
func NewVectorNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (*VectorNode, error) {
	p, err := newChainParams(cfg, id, signer, dir, "vector")
	if err != nil {
		return nil, err
	}
	if value == nil {
		return nil, errors.New("fd: vector node needs a proposal value")
	}
	p.value = append([]byte(nil), value...)
	p.framed = true
	n := &VectorNode{params: p, inst: make([]chainRun, cfg.N)}
	for s := range n.inst {
		n.inst[s] = newChainRun(&n.params, model.NodeID(s))
	}
	return n, nil
}

// Finished implements sim.Finisher. A vector node listens to the last
// round, whatever its instances have settled.
func (n *VectorNode) Finished() bool { return n.finished }

// Outcome returns this node's outcome for the instance whose sender is s.
func (n *VectorNode) Outcome(s model.NodeID) model.Outcome {
	if !s.Valid(n.params.cfg.N) {
		return model.Outcome{Node: n.params.id}
	}
	return n.inst[s].outcome
}

// MarshalVectorPayload packs (instance, chain) into one exactly-sized
// payload. Exported for adversarial tests that rewrite instance traffic.
func MarshalVectorPayload(s model.NodeID, chain []byte) []byte {
	out := make([]byte, 0, sig.IntFieldSize+sig.BytesFieldSize(len(chain)))
	out = sig.AppendInt(out, int(s))
	return sig.AppendBytes(out, chain)
}

// marshalVectorChain packs (instance, chain) straight from the chain's
// cached state: one allocation, no intermediate Marshal copy.
func marshalVectorChain(s model.NodeID, chain sig.Chain) []byte {
	msize := chain.MarshalSize()
	out := make([]byte, 0, sig.IntFieldSize+sig.BytesFieldSize(msize))
	out = sig.AppendInt(out, int(s))
	out = sig.AppendUint32(out, uint32(msize))
	return chain.MarshalTo(out)
}

// UnmarshalVectorPayload unpacks a vector payload; the returned chain is
// a fresh copy safe to mutate.
func UnmarshalVectorPayload(data []byte) (model.NodeID, []byte, error) {
	s, chain, err := splitVectorPayload(data)
	if err != nil {
		return model.NoNode, nil, err
	}
	return s, append([]byte(nil), chain...), nil
}

// splitVectorPayload unpacks a vector payload, the chain aliasing data:
// the receive path hands it to sig.UnmarshalChain, which copies once.
func splitVectorPayload(data []byte) (model.NodeID, []byte, error) {
	d := sig.NewDecoder(data)
	s := model.NodeID(d.Int())
	chain := d.Bytes()
	return s, chain, d.Finish()
}

// Step implements the sim Process contract. Unlike a single run, an
// instance that stops keeps what the other instances sent this round.
func (n *VectorNode) Step(round int, received []model.Message) []model.Message {
	var out []model.Message
	for _, m := range received {
		if m.Kind != model.KindChainValue {
			n.discoverAll(round, model.Discovery{Reason: model.ReasonUnexpectedMessage, Fact: factVectorKind, Kind: m.Kind, Peer: m.From})
			continue
		}
		s, chain, err := splitVectorPayload(m.Payload)
		if err != nil || !s.Valid(n.params.cfg.N) {
			n.discoverAll(round, model.Discovery{Reason: model.ReasonBadFormat, Fact: factVectorPayload, Peer: m.From})
			continue
		}
		out = append(out, n.inst[s].deliver(round, m, chain)...)
	}
	for s := range n.inst {
		out = append(out, n.inst[s].tick(round)...)
	}
	if round >= ChainEngineRounds(n.params.cfg.T) {
		n.finished = true
	}
	return out
}

// discoverAll marks every still-open instance failed: used for messages
// that cannot be attributed to any instance (no failure-free run of ANY
// instance contains them).
func (n *VectorNode) discoverAll(round int, d model.Discovery) {
	for s := range n.inst {
		if model.NodeID(s) != n.params.id { // our own proposal stands regardless
			n.inst[s].discover(round, d)
		}
	}
}

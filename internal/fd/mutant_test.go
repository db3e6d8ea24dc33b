package fd

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Mutants of the correct nodes, one rule of the paper removed from each,
// for TestEveryRuleHasAKiller. They live in this test file only: no
// production option builds them.

// noVerifySeat is the chain seat without Fig. 2's "check the signatures
// of the message and the submessages": its receive path is
// chainRun.receive with the VerifyTo call, and the signer-order check
// that reads its result, taken out (and the small-range value check, which
// a chain node never reaches). Everything else is the seat's own code.
type noVerifySeat struct{ ChainNode }

// NewNoVerifyChainNode builds node id of a chain run as the noVerifySeat
// mutant; the arguments are NewChainNode's.
func NewNoVerifyChainNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, opts ...ChainOption) (sim.Process, error) {
	n, err := NewChainNode(cfg, id, signer, dir, opts...)
	if err != nil {
		return nil, err
	}
	m := &noVerifySeat{ChainNode: *n}
	m.run.chainParams = &m.params
	return m, nil
}

// Step is ChainNode.Step, with a message in the seat's expected slot
// going to the mutant receive.
func (n *noVerifySeat) Step(round int, received []model.Message) []model.Message {
	r := &n.run
	if r.stopped {
		return nil
	}
	var out []model.Message
	for _, m := range received {
		if r.pos == 0 || round != r.expectRound() || m.From != r.expectFrom() ||
			m.Kind != model.KindChainValue || r.gotChain {
			r.deliver(round, m, m.Payload) // discovers
		} else {
			r.gotChain = true
			out = append(out, n.receive(round, m.From, m.Payload)...)
		}
		if r.stopped {
			return nil
		}
	}
	return append(out, r.tick(round)...)
}

// receive is chainRun.receive minus r.verify.
func (n *noVerifySeat) receive(round int, from model.NodeID, payload []byte) []model.Message {
	r := &n.run
	chain, err := sig.UnmarshalChain(payload)
	if err != nil {
		r.discover(round, model.Discovery{Reason: model.ReasonBadFormat, Fact: factChain, Peer: from, Err: err})
		return nil
	}
	if want := min(r.pos, r.cfg.T+1); chain.Len() != want {
		r.discover(round, model.Discovery{Reason: model.ReasonBadChain, Fact: factChainLength, Peer: from, Got: chain.Len(), Want: want})
		return nil
	}
	r.decide(chain.Value())
	r.finished = true
	role := RoleOf(model.NodeID(r.pos), r.cfg.T)
	if role == RoleTail {
		r.evidence = chain
		return nil
	}
	next, err := chain.Extend(from, r.signer)
	if err != nil {
		panic(fmt.Sprintf("fd: %v extending chain: %v", r.id, err))
	}
	r.evidence = next
	payload = r.wire(next)
	if role == RoleRelay {
		return []model.Message{{To: r.at(r.pos + 1), Kind: model.KindChainValue, Payload: payload}}
	}
	out := make([]model.Message, 0, r.cfg.N-1-r.cfg.T)
	for q := r.cfg.T + 1; q < r.cfg.N; q++ {
		out = append(out, model.Message{To: r.at(q), Kind: model.KindChainValue, Payload: payload})
	}
	return out
}

// twiceRelaySeat is a relay's chain seat that sends what it forwards
// twice: Fig. 2's relay sends its chain once, to its one successor.
type twiceRelaySeat struct{ *ChainNode }

// NewTwiceRelayChainNode builds node id of a chain run, as a
// twiceRelaySeat when id is a relay; the arguments are NewChainNode's.
func NewTwiceRelayChainNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, opts ...ChainOption) (sim.Process, error) {
	n, err := NewChainNode(cfg, id, signer, dir, opts...)
	if err != nil || RoleOf(id, cfg.T) != RoleRelay {
		return n, err
	}
	return twiceRelaySeat{n}, nil
}

// Step is ChainNode.Step with every send made twice.
func (n twiceRelaySeat) Step(round int, received []model.Message) []model.Message {
	out := n.ChainNode.Step(round, received)
	return append(out, out...)
}

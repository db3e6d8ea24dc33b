package fd

import (
	"errors"

	"repro/internal/model"
	"repro/internal/sig"
)

// SmallRangeNode implements the paper's §5 remark that, "if the value
// range is known a priori and small compared to n, solutions with fewer
// messages are possible by assigning values to missing messages", citing
// Hadzilacos & Halpern's message-optimal protocols.
//
// This is a documented SIMPLIFIED variant for a binary value domain with a
// designated default: when the sender's value is the default, it sends
// nothing and silence means default; otherwise the protocol is exactly the
// chain protocol of Fig. 2 — the same run, with silence given a value.
// Failure-free runs therefore cost 0 messages for the default value and
// n−1 otherwise. All messages that do flow are chain-signed, so the
// variant inherits the local-authentication compatibility the paper
// establishes (its §5 point).
//
// LIMITATION (deliberate, measured by experiment E9): the full
// Hadzilacos–Halpern construction makes silence itself attributable; this
// simplified variant does not, so a faulty disseminator can deliver the
// non-default chain to only part of the tail and leave the rest deciding
// the default with no correct node discovering a failure. The test
// TestSmallRangeSplitAttack exhibits exactly that run; closing the gap
// needs the citation's machinery.
type SmallRangeNode struct{ chain ChainNode }

// SmallRangeOption configures a SmallRangeNode.
type SmallRangeOption func(*SmallRangeNode)

// WithBinaryValue sets the sender's initial bit, 0 or 1; the constructor
// refuses any other byte.
func WithBinaryValue(v byte) SmallRangeOption {
	return func(n *SmallRangeNode) { n.chain.params.value = []byte{v} }
}

// smallRangeDefault holds the bit silence encodes. Read only.
var smallRangeDefault = []byte{0}

// NewSmallRangeNode builds a correct participant for one small-range run.
func NewSmallRangeNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, opts ...SmallRangeOption) (*SmallRangeNode, error) {
	p, err := newChainParams(cfg, id, signer, dir, "small-range")
	if err != nil {
		return nil, err
	}
	p.silence = smallRangeDefault
	n := &SmallRangeNode{chain: ChainNode{params: p}}
	for _, opt := range opts {
		opt(n)
	}
	if v := n.chain.params.value; id == Sender && (v == nil || v[0] > 1) {
		return nil, errors.New("fd: sender needs WithBinaryValue 0 or 1")
	}
	n.chain.run = newChainRun(&n.chain.params, Sender)
	return n, nil
}

// Outcome implements Outcomer.
func (n *SmallRangeNode) Outcome() model.Outcome { return n.chain.Outcome() }

// Finished implements sim.Finisher.
func (n *SmallRangeNode) Finished() bool { return n.chain.Finished() }

// Step implements the sim Process contract.
func (n *SmallRangeNode) Step(round int, received []model.Message) []model.Message {
	return n.chain.Step(round, received)
}

package fd

import (
	"bytes"
	"fmt"

	"repro/internal/model"
)

// NonAuthNode implements the non-authenticated Failure Discovery baseline.
//
// The paper quotes Hadzilacos & Halpern: without authentication, Failure
// Discovery for arbitrary failures needs O(n·t) messages — O(n²) when a
// constant fraction of nodes may be faulty. This baseline realizes that
// complexity class with a broadcast-plus-echo construction:
//
//	round 1: the sender P_0 broadcasts its value v to everyone;
//	round 2: the echoers P_1 … P_t each broadcast the value they received
//	         to everyone;
//	then each node checks that the sender's value arrived and that every
//	echo matches it, discovering a failure on any absence or mismatch.
//
// Messages in failure-free runs: (t+1)(n−1).
//
// Why F1–F3 hold (tested in nonauth_test.go and by experiment E7):
//   - F1: every node decides at its deadline or discovers.
//   - F2: suppose no correct node discovers. If some echoer is correct,
//     its echo reached every node, so all correct nodes hold its value.
//     If all t echoers are faulty, the sender is correct (otherwise t+1
//     faults), so every correct node received v directly.
//   - F3: a correct sender delivers v to all; a correct node seeing any
//     conflicting echo discovers rather than decides.
type NonAuthNode struct {
	id  model.NodeID
	cfg model.Config

	// value is the sender's initial value (sender only).
	value []byte
	// got is the value received from the sender, when gotValue.
	got      []byte
	gotValue bool
	// echoes collects (echoer, value) pairs received in the echo round.
	echoes map[model.NodeID][]byte

	outcome  model.Outcome
	stopped  bool
	finished bool
}

// NonAuthOption configures a NonAuthNode.
type NonAuthOption func(*NonAuthNode)

// WithNonAuthValue sets the sender's initial value.
func WithNonAuthValue(v []byte) NonAuthOption {
	return func(n *NonAuthNode) { n.value = append([]byte(nil), v...) }
}

// NewNonAuthNode builds a correct participant for one baseline run.
func NewNonAuthNode(cfg model.Config, id model.NodeID, opts ...NonAuthOption) (*NonAuthNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !id.Valid(cfg.N) {
		return nil, fmt.Errorf("fd: node id %v out of range for n=%d", id, cfg.N)
	}
	n := &NonAuthNode{
		id:     id,
		cfg:    cfg,
		echoes: make(map[model.NodeID][]byte),
	}
	n.outcome.Node = id
	for _, opt := range opts {
		opt(n)
	}
	if id == Sender && n.value == nil {
		return nil, fmt.Errorf("fd: sender needs WithNonAuthValue")
	}
	return n, nil
}

// IsEchoer reports whether the node rebroadcasts in round 2.
func (n *NonAuthNode) IsEchoer() bool { return n.id != Sender && int(n.id) <= n.cfg.T }

// Outcome implements Outcomer.
func (n *NonAuthNode) Outcome() model.Outcome { return n.outcome }

// Finished implements sim.Finisher.
func (n *NonAuthNode) Finished() bool { return n.finished }

// Step implements the sim Process contract.
func (n *NonAuthNode) Step(round int, received []model.Message) []model.Message {
	if n.stopped {
		return nil
	}
	n.ingest(round, received)
	if n.stopped {
		return nil
	}
	lastRound := NonAuthEngineRounds(n.cfg.T)
	switch {
	case round == 1 && n.id == Sender:
		n.decide(n.value)
		if lastRound == 2 {
			// t = 0: no echo round follows; the sender is done.
			n.finished = true
		}
		return n.broadcast(model.KindPlainValue, n.value)
	case round == 2 && n.IsEchoer():
		if !n.gotValue {
			// No failure-free run leaves an echoer without a value.
			n.discover(round, model.Discovery{Reason: model.ReasonMissingMessage, Fact: factNoValueByEcho})
			return nil
		}
		return n.broadcast(model.KindEcho, n.got)
	case round == lastRound:
		n.conclude(round)
	}
	return nil
}

// ingest files incoming messages, discovering on any message no
// failure-free run delivers.
func (n *NonAuthNode) ingest(round int, received []model.Message) {
	for _, m := range received {
		if n.stopped {
			return
		}
		switch {
		case m.Kind == model.KindPlainValue && m.From == Sender && round == 2 && !n.gotValue:
			n.got = append([]byte(nil), m.Payload...)
			n.gotValue = true
		case m.Kind == model.KindEcho && round == 3 && m.From != Sender && int(m.From) <= n.cfg.T:
			if _, dup := n.echoes[m.From]; dup {
				n.discover(round, model.Discovery{Reason: model.ReasonUnexpectedMessage, Fact: factDuplicateEcho, Peer: m.From})
				return
			}
			n.echoes[m.From] = append([]byte(nil), m.Payload...)
		default:
			n.discover(round, model.Discovery{Reason: model.ReasonUnexpectedMessage, Fact: factUnexpected, Kind: m.Kind, Peer: m.From})
			return
		}
	}
}

// conclude runs the cross-check at the deadline: the sender's value must
// have arrived, every echoer must have echoed, and all echoes must match
// the value. Any deviation is a discovered failure; otherwise decide.
func (n *NonAuthNode) conclude(round int) {
	defer func() { n.finished = true }()
	if n.id == Sender {
		// The sender decided its own value in round 1 but still
		// cross-checks the echoes: a mismatching echo is a deviation every
		// other node may also be seeing.
		n.checkEchoes(round, n.value)
		return
	}
	if !n.gotValue {
		n.discover(round, model.Discovery{Reason: model.ReasonMissingMessage, Fact: factNoValue})
		return
	}
	if !n.checkEchoes(round, n.got) {
		return
	}
	n.decide(n.got)
}

// checkEchoes verifies presence and consistency of all expected echoes
// against want. It reports whether the node may proceed to decide.
func (n *NonAuthNode) checkEchoes(round int, want []byte) bool {
	for e := 1; e <= n.cfg.T; e++ {
		echoer := model.NodeID(e)
		if echoer == n.id {
			continue // a node does not echo to itself
		}
		got, ok := n.echoes[echoer]
		if !ok {
			n.discover(round, model.Discovery{Reason: model.ReasonMissingMessage, Fact: factNoEcho, Peer: echoer})
			return false
		}
		if !bytes.Equal(got, want) {
			n.discover(round, model.Discovery{Reason: model.ReasonValueMismatch, Fact: &cited{fact: factEchoMismatch, got: got, want: want}, Peer: echoer})
			return false
		}
	}
	return true
}

// broadcast sends payload to every other node.
func (n *NonAuthNode) broadcast(kind model.MessageKind, payload []byte) []model.Message {
	return model.AppendBroadcast(make([]model.Message, 0, n.cfg.N-1), n.cfg.N, n.id, kind, payload)
}

// decide records the decision value.
func (n *NonAuthNode) decide(v []byte) {
	n.outcome.Decided = true
	n.outcome.Value = append([]byte(nil), v...)
}

// discover records a discovered failure, d's facts stamped with this
// node and round, and stops the node.
func (n *NonAuthNode) discover(round int, d model.Discovery) {
	d.Node, d.Round = n.id, round
	n.outcome.Decided = false
	n.outcome.Value = nil
	n.outcome.Discovery = &d
	n.stopped = true
	n.finished = true
}

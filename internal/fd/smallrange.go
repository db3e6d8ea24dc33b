package fd

import (
	"errors"
	"fmt"

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
// chain protocol of Fig. 2. Failure-free runs therefore cost 0 messages
// for the default value and n−1 otherwise. All messages that do flow are
// chain-signed, so the variant inherits the local-authentication
// compatibility the paper establishes (its §5 point).
//
// LIMITATION (deliberate, measured by experiment E9): the full
// Hadzilacos–Halpern construction makes silence itself attributable; this
// simplified variant does not, so a faulty disseminator can deliver the
// non-default chain to only part of the tail and leave the rest deciding
// the default with no correct node discovering a failure. The test
// TestSmallRangeSplitAttack exhibits exactly that run; closing the gap
// needs the citation's machinery.
type SmallRangeNode struct {
	id     model.NodeID
	cfg    model.Config
	signer sig.Signer
	dir    sig.Directory
	role   Role

	// def is the default value decided on silence.
	def byte
	// value is the sender's initial value (sender only).
	value    byte
	hasValue bool

	outcome  model.Outcome
	stopped  bool
	finished bool
	gotChain bool
}

// SmallRangeOption configures a SmallRangeNode.
type SmallRangeOption func(*SmallRangeNode)

// WithBinaryValue sets the sender's initial bit.
func WithBinaryValue(v byte) SmallRangeOption {
	return func(n *SmallRangeNode) { n.value = v & 1; n.hasValue = true }
}

// WithDefault overrides the default bit (the one silence encodes). The
// default default is 0.
func WithDefault(d byte) SmallRangeOption {
	return func(n *SmallRangeNode) { n.def = d & 1 }
}

// NewSmallRangeNode builds a correct participant for one small-range run.
func NewSmallRangeNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, opts ...SmallRangeOption) (*SmallRangeNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !id.Valid(cfg.N) {
		return nil, fmt.Errorf("fd: node id %v out of range for n=%d", id, cfg.N)
	}
	if signer == nil || dir == nil {
		return nil, errors.New("fd: small-range node needs a signer and a directory")
	}
	n := &SmallRangeNode{
		id:     id,
		cfg:    cfg,
		signer: signer,
		dir:    dir,
		role:   RoleOf(id, cfg.T),
	}
	n.outcome.Node = id
	for _, opt := range opts {
		opt(n)
	}
	if id == Sender && !n.hasValue {
		return nil, errors.New("fd: sender needs WithBinaryValue")
	}
	return n, nil
}

// SmallRangeMessages returns the failure-free message count: zero when
// the sender's value is the default, n−1 otherwise.
func SmallRangeMessages(n int, value, def byte) int {
	if value&1 == def&1 {
		return 0
	}
	return n - 1
}

// Outcome implements Outcomer.
func (n *SmallRangeNode) Outcome() model.Outcome { return n.outcome }

// Finished implements sim.Finisher.
func (n *SmallRangeNode) Finished() bool { return n.finished }

func (n *SmallRangeNode) expectRound() int {
	if n.role == RoleTail {
		return n.cfg.T + 2
	}
	return int(n.id) + 1
}

func (n *SmallRangeNode) expectFrom() model.NodeID {
	if n.role == RoleTail {
		return model.NodeID(n.cfg.T)
	}
	return n.id - 1
}

// Step implements the sim Process contract.
func (n *SmallRangeNode) Step(round int, received []model.Message) []model.Message {
	if n.stopped {
		return nil
	}
	var out []model.Message
	for _, m := range received {
		if n.stopped {
			break
		}
		if round == n.expectRound() && m.From == n.expectFrom() &&
			m.Kind == model.KindChainValue && !n.gotChain && n.id != Sender {
			n.gotChain = true
			out = append(out, n.handleChain(round, m)...)
			continue
		}
		n.discover(round, model.ReasonUnexpectedMessage,
			fmt.Sprintf("%v message from %v in round %d", m.Kind, m.From, round))
	}
	if n.stopped {
		return nil
	}
	switch {
	case round == 1 && n.id == Sender:
		n.decideBit(n.value)
		n.finished = true
		if n.value != n.def {
			out = append(out, n.startChain()...)
		}
	case round == n.expectRound() && !n.gotChain && n.id != Sender:
		// Silence at the deadline encodes the default value — this is the
		// "assign values to missing messages" device.
		n.decideBit(n.def)
		if n.role != RoleTail {
			// A relay that decided the default neither forwards nor
			// disseminates; downstream silence encodes the same default.
			n.finished = round >= ChainEngineRounds(n.cfg.T)
		} else {
			n.finished = true
		}
	}
	if round >= ChainEngineRounds(n.cfg.T) {
		n.finished = true
	}
	return out
}

func (n *SmallRangeNode) startChain() []model.Message {
	chain, err := sig.NewChain([]byte{n.value}, n.signer)
	if err != nil {
		panic(fmt.Sprintf("fd: %v signing value: %v", n.id, err))
	}
	payload := chain.Marshal()
	if n.cfg.T == 0 {
		return model.AppendBroadcast(make([]model.Message, 0, n.cfg.N-1), n.cfg.N, n.id, model.KindChainValue, payload)
	}
	return []model.Message{{To: Sender + 1, Kind: model.KindChainValue, Payload: payload}}
}

func (n *SmallRangeNode) handleChain(round int, m model.Message) []model.Message {
	chain, err := sig.UnmarshalChain(m.Payload)
	if err != nil {
		n.discover(round, model.ReasonBadFormat, fmt.Sprintf("chain from %v: %v", m.From, err))
		return nil
	}
	wantLen := int(n.id)
	if n.role == RoleTail {
		wantLen = n.cfg.T + 1
	}
	if chain.Len() != wantLen {
		n.discover(round, model.ReasonBadChain,
			fmt.Sprintf("chain from %v has %d signatures, want %d", m.From, chain.Len(), wantLen))
		return nil
	}
	signers, err := chain.Verify(m.From, n.dir)
	if err != nil {
		n.discover(round, model.ReasonBadChain, fmt.Sprintf("chain from %v: %v", m.From, err))
		return nil
	}
	for k, s := range signers {
		if s != model.NodeID(k) {
			n.discover(round, model.ReasonBadChain,
				fmt.Sprintf("layer %d assigned to %v, want %v", k, s, model.NodeID(k)))
			return nil
		}
	}
	v := chain.Value()
	if len(v) != 1 || v[0]&1 != v[0] || v[0] == n.def {
		// A chain carrying the default (or a non-bit) never occurs in a
		// failure-free run: the default flows as silence.
		n.discover(round, model.ReasonProtocol,
			fmt.Sprintf("chain from %v carries invalid small-range value %v", m.From, v))
		return nil
	}
	n.decideBit(v[0])
	switch n.role {
	case RoleRelay:
		next, err := chain.Extend(m.From, n.signer)
		if err != nil {
			panic(fmt.Sprintf("fd: %v extending chain: %v", n.id, err))
		}
		n.finished = true
		return []model.Message{{To: n.id + 1, Kind: model.KindChainValue, Payload: next.Marshal()}}
	case RoleDisseminator:
		next, err := chain.Extend(m.From, n.signer)
		if err != nil {
			panic(fmt.Sprintf("fd: %v extending chain: %v", n.id, err))
		}
		payload := next.Marshal()
		out := make([]model.Message, 0, n.cfg.N-1-n.cfg.T)
		for j := n.cfg.T + 1; j < n.cfg.N; j++ {
			out = append(out, model.Message{To: model.NodeID(j), Kind: model.KindChainValue, Payload: payload})
		}
		n.finished = true
		return out
	default:
		n.finished = true
		return nil
	}
}

func (n *SmallRangeNode) decideBit(v byte) {
	n.outcome.Decided = true
	n.outcome.Value = []byte{v}
}

func (n *SmallRangeNode) discover(round int, reason model.FailureReason, detail string) {
	d := model.Discovery{Node: n.id, Round: round, Reason: reason, Detail: detail}
	n.outcome.Decided = false
	n.outcome.Value = nil
	n.outcome.Discovery = &d
	n.stopped = true
	n.finished = true
}

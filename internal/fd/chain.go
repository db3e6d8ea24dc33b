package fd

import (
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/sig"
)

// ChainNode implements the authenticated Failure Discovery protocol of
// paper Fig. 2, verbatim:
//
//	Protocol for P_0:
//	  send value {v}_{S_0} to P_1
//	Protocol for P_i, 1 ≤ i < t:
//	  receive m = {S_{i-1}, …, {S_0, {v}_{S_0}} …}_{S_{i-1}} from P_{i-1}
//	  check the signatures of the message and the submessages
//	  if negative then discover failure and stop
//	  else accept v and send {S_{i-1}, m}_{S_i} to P_{i+1}
//	Protocol for P_t:
//	  receive, check; if negative discover failure and stop
//	  else accept v and send {S_{t-1}, m}_{S_t} to P_{t+1} … P_n
//	Protocol for P_{t+1} … P_n:
//	  receive, check; if negative discover failure, else accept v
//
// The run uses the minimal n−1 messages. Every message is chain-signed
// with assignee names, so by Theorem 4 all correct nodes assign every
// sub-message to the same node or some correct node discovers a failure —
// which is exactly what makes the protocol sound under mere local
// authentication (paper §4.1).
//
// The protocol itself is chainRun, this node's seat in one run; the
// small-range and vector nodes sit in the same runs with other data.
type ChainNode struct {
	params chainParams
	run    chainRun
}

// ChainOption configures a ChainNode.
type ChainOption func(*ChainNode)

// WithValue sets the sender's initial value. Only meaningful for P_0.
func WithValue(v []byte) ChainOption {
	return func(n *ChainNode) { n.params.value = append([]byte(nil), v...) }
}

// NewChainNode builds a correct participant for one chain-protocol run.
// The signer and directory normally come from a completed key-distribution
// run (local authentication); a shared MapDirectory models global
// authentication instead.
func NewChainNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, opts ...ChainOption) (*ChainNode, error) {
	p, err := newChainParams(cfg, id, signer, dir, "chain")
	if err != nil {
		return nil, err
	}
	n := &ChainNode{params: p}
	for _, opt := range opts {
		opt(n)
	}
	if id == Sender && n.params.value == nil {
		return nil, errors.New("fd: sender needs WithValue")
	}
	n.run = newChainRun(&n.params, Sender)
	return n, nil
}

// Outcome implements Outcomer.
func (n *ChainNode) Outcome() model.Outcome { return n.run.outcome }

// Finished implements sim.Finisher.
func (n *ChainNode) Finished() bool { return n.run.finished }

// EvidenceChain returns the strongest chain this node can present for its
// accepted value: its signer sequence is the consecutive prefix
// P_0 … P_{k-1}. It is the zero Chain (Len() == 0) when the node accepted
// nothing.
func (n *ChainNode) EvidenceChain() sig.Chain { return n.run.evidence }

// Step implements the sim Process contract.
func (n *ChainNode) Step(round int, received []model.Message) []model.Message {
	r := &n.run
	if r.stopped {
		// "discover failure and stop": a stopped node ignores the rest of
		// the run.
		return nil
	}
	var out []model.Message
	for _, m := range received {
		out = append(out, r.deliver(round, m, m.Payload)...)
		if r.stopped {
			// Stopping withdraws what this round already produced.
			return nil
		}
	}
	return append(out, r.tick(round)...)
}

// chainParams is what one node brings to every Fig. 2 run it sits in:
// its keys, its own value, and the variant's reading of the wire.
type chainParams struct {
	cfg    model.Config
	id     model.NodeID
	signer sig.Signer
	dir    sig.Directory
	// value is what this node sends in the run it starts (position 0).
	value []byte
	// silence, when non-nil, is the value a missing chain stands for
	// (paper §5, small range): a sender holding it sends nothing, and a
	// chain carrying it, or any value that is not a single bit, is a
	// deviation.
	silence []byte
	// framed chains travel in the vector's (instance, chain) envelope.
	framed bool
	// signers is VerifyTo's buffer, shared by the runs the node sits in:
	// a chain's signers are read only until the next chain is verified.
	signers []model.NodeID
}

func newChainParams(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, what string) (chainParams, error) {
	if err := cfg.Validate(); err != nil {
		return chainParams{}, err
	}
	if !id.Valid(cfg.N) {
		return chainParams{}, fmt.Errorf("fd: node id %v out of range for n=%d", id, cfg.N)
	}
	if signer == nil || dir == nil {
		return chainParams{}, fmt.Errorf("fd: %s node needs a signer and a directory", what)
	}
	return chainParams{cfg: cfg, id: id, signer: signer, dir: dir}, nil
}

// chainRun is one node's seat in one run of Fig. 2. The run's sender is
// origin and position p is node (origin + p) mod n, so Fig. 2 is origin
// P_0 and every other origin is a relabeling of it: position 0 sends,
// positions 1 … t−1 relay, position t disseminates, the rest are the tail.
type chainRun struct {
	*chainParams
	origin model.NodeID
	pos    int

	outcome  model.Outcome
	stopped  bool
	finished bool
	// gotChain marks that the expected chain message arrived on schedule.
	gotChain bool
	// evidence is the strongest chain this node can present for its
	// accepted value: the sender's initial chain, a relay's or the
	// disseminator's extended chain, or the tail's received full chain.
	// The FD→BA extension floods it during fallback.
	evidence sig.Chain
}

func newChainRun(p *chainParams, origin model.NodeID) chainRun {
	return chainRun{
		chainParams: p,
		origin:      origin,
		pos:         (int(p.id) - int(origin) + p.cfg.N) % p.cfg.N,
		outcome:     model.Outcome{Node: p.id},
	}
}

// at returns the node sitting at position p.
func (r *chainRun) at(p int) model.NodeID { return model.NodeID((int(r.origin) + p) % r.cfg.N) }

// expectRound returns the engine round in which this seat's chain message
// arrives in failure-free runs: position p receives in round p+1 (the
// sender's message is sent in round 1, delivered at the round-2 step), and
// the tail receives the disseminated chain in round t+2.
func (r *chainRun) expectRound() int {
	if r.pos > r.cfg.T {
		return r.cfg.T + 2
	}
	return r.pos + 1
}

// expectFrom returns the node this seat's chain message must come from:
// the previous position, or the disseminator for the tail.
func (r *chainRun) expectFrom() model.NodeID { return r.at(min(r.pos-1, r.cfg.T)) }

// deliver files one message of this run, payload being its chain bytes.
// Any message outside the seat's single expected (round, sender, kind)
// slot deviates from every failure-free run.
func (r *chainRun) deliver(round int, m model.Message, payload []byte) []model.Message {
	if r.stopped {
		return nil
	}
	if r.pos == 0 || round != r.expectRound() || m.From != r.expectFrom() ||
		m.Kind != model.KindChainValue || r.gotChain {
		r.discover(round, model.Discovery{Reason: model.ReasonUnexpectedMessage, Fact: factUnexpected, Kind: m.Kind, Peer: m.From})
		return nil
	}
	r.gotChain = true
	return r.receive(round, m.From, payload)
}

// tick takes the round's own step once its messages are filed: position 0
// starts the run in round 1, and a seat whose chain is missing at its
// deadline discovers a failure — no failure-free run is silent there —
// or, under small range, reads the silence as its value.
func (r *chainRun) tick(round int) []model.Message {
	if r.stopped {
		return nil
	}
	var out []model.Message
	switch {
	case round == 1 && r.pos == 0:
		out = r.start()
	case round == r.expectRound() && !r.gotChain && r.pos != 0:
		if r.silence == nil {
			r.discover(round, model.Discovery{Reason: model.ReasonMissingMessage, Fact: factMissingChain, Peer: r.expectFrom()})
			break
		}
		// Under small range the silence is the value. A relay or the
		// disseminator that reads it forwards nothing — downstream silence
		// means the same — and listens on to the last round; a tail is done.
		r.decide(r.silence)
		r.finished = r.pos > r.cfg.T
	}
	if round >= ChainEngineRounds(r.cfg.T) {
		r.finished = true
	}
	return out
}

// start is position 0's single action: sign the value and send it to
// position 1, or — when t = 0 — to everyone directly, in node-ID order.
func (r *chainRun) start() []model.Message {
	r.decide(r.value)
	r.finished = true
	if r.silence != nil && r.value[0] == r.silence[0] {
		return nil
	}
	chain, err := sig.NewChain(r.value, r.signer)
	if err != nil {
		panic(fmt.Sprintf("fd: %v signing value: %v", r.id, err))
	}
	r.evidence = chain
	payload := r.wire(chain)
	if r.cfg.T == 0 {
		return model.AppendBroadcast(make([]model.Message, 0, r.cfg.N-1), r.cfg.N, r.id, model.KindChainValue, payload)
	}
	return []model.Message{{To: r.at(1), Kind: model.KindChainValue, Payload: payload}}
}

// receive performs the "check the signatures of the message and the
// submessages" step and the position's continuation.
func (r *chainRun) receive(round int, from model.NodeID, payload []byte) []model.Message {
	chain, err := sig.UnmarshalChain(payload)
	if err != nil {
		r.discover(round, model.Discovery{Reason: model.ReasonBadFormat, Fact: factChain, Peer: from, Err: err})
		return nil
	}
	// In a failure-free run position p's chain has exactly p signatures
	// (S_0 … S_{p-1}); the tail's has t+1.
	if want := min(r.pos, r.cfg.T+1); chain.Len() != want {
		r.discover(round, model.Discovery{Reason: model.ReasonBadChain, Fact: factChainLength, Peer: from, Got: chain.Len(), Want: want})
		return nil
	}
	if err := r.verify(chain, from); err != nil {
		reason := model.ReasonBadChain
		switch {
		case errors.Is(err, sig.ErrChainUnknownSigner):
			reason = model.ReasonUnknownKey
		case errors.Is(err, sig.ErrChainBadSignature):
			reason = model.ReasonBadSignature
		}
		r.discover(round, model.Discovery{Reason: reason, Fact: factChain, Peer: from, Err: err})
		return nil
	}
	if v := chain.Value(); r.silence != nil && (len(v) != 1 || v[0] > 1 || v[0] == r.silence[0]) {
		// A chain carrying the silence value (or a non-bit) never occurs
		// in a failure-free run: that value flows as silence.
		r.discover(round, model.Discovery{Reason: model.ReasonProtocol, Fact: &cited{fact: factSmallRange, got: v}, Peer: from})
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

// verify checks every layer of the chain and that the signer sequence is
// exactly positions 0 … len−1 — the only sequence a failure-free run of
// Fig. 2 produces.
func (r *chainRun) verify(chain sig.Chain, from model.NodeID) error {
	signers, err := chain.VerifyTo(r.signers[:0], from, r.dir)
	r.signers = signers
	if err != nil {
		return err
	}
	for k, s := range signers {
		if want := r.at(k); s != want {
			return &layerError{layer: k, got: s, want: want}
		}
	}
	return nil
}

// layerError is a chain whose layer is signed by a node other than the
// one its position names; the text is formatted when read.
type layerError struct {
	layer     int
	got, want model.NodeID
}

func (e *layerError) Error() string {
	return fmt.Sprintf("%v: layer %d assigned to %v, want %v", sig.ErrChainBadSignature, e.layer, e.got, e.want)
}

func (e *layerError) Unwrap() error { return sig.ErrChainBadSignature }

// wire encodes a chain for this run's traffic.
func (r *chainRun) wire(c sig.Chain) []byte {
	if r.framed {
		return marshalVectorChain(r.origin, c)
	}
	return c.Marshal()
}

// decide records the node's decision value ("accept v"). v is kept, not
// copied: it is this node's own value, the small-range default, or an
// accepted chain's value, and none of those bytes is ever written.
func (r *chainRun) decide(v []byte) {
	r.outcome.Decided = true
	r.outcome.Value = v
}

// discover records a discovered failure, d's facts stamped with this
// node and round, and stops the seat, per Fig. 2's "discover failure
// and stop". Discovery overrides any earlier decision: the node's view
// has left every failure-free run. Only the first discovery counts.
func (r *chainRun) discover(round int, d model.Discovery) {
	if r.stopped {
		return
	}
	d.Node, d.Round = r.id, round
	r.outcome.Decided = false
	r.outcome.Value = nil
	r.outcome.Discovery = &d
	r.stopped = true
	r.finished = true
}

package keydist

import (
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/sig"
)

// Protocol round numbers. The protocol sends in rounds 1–3 and concludes
// with a message-free acceptance step, so it "takes 3 rounds of
// communication" in the paper's counting.
const (
	// RoundBroadcast is the round in which every node sends its test
	// predicate to all others.
	RoundBroadcast = 1
	// RoundChallenge is the round in which nonce challenges are sent.
	RoundChallenge = 2
	// RoundResponse is the round in which signed responses are returned.
	RoundResponse = 3
	// RoundsTotal is the number of engine steps the protocol needs: the
	// three communication rounds plus the acceptance step that consumes
	// the round-3 responses.
	RoundsTotal = 4
	// CommunicationRounds is the number of rounds that carry messages.
	CommunicationRounds = 3
)

// ExpectedMessages returns the protocol's total message count for a
// failure-free run with n nodes: each node sends its predicate to n−1
// peers, receives n−1 challenges, and returns n−1 responses — the paper's
// 3·n·(n−1).
func ExpectedMessages(n int) int { return 3 * n * (n - 1) }

// Node is a correct participant in the key-distribution protocol,
// implementing the sim Process contract. After the run completes,
// Directory holds the locally authentic predicate map and Signer the
// node's own secret key, ready for use by the failure-discovery protocols.
type Node struct {
	id     model.NodeID
	cfg    model.Config
	scheme sig.Scheme
	signer sig.Signer
	rand   io.Reader

	dir         *Directory
	pending     map[model.NodeID]*pendingPeer
	discoveries []model.Discovery
	finished    bool
}

// pendingPeer tracks one peer's predicate between reception and acceptance.
type pendingPeer struct {
	pred      sig.TestPredicate
	challenge Challenge
	// duplicated marks a peer that sent more than one predicate; no
	// failure-free run does that, so the deviation is recorded and the
	// peer is never accepted.
	duplicated bool
}

// NodeOption configures a Node beyond the required parameters.
type NodeOption func(*nodeConfig)

type nodeConfig struct {
	keyRand io.Reader
}

// WithKeyRand draws key-generation entropy from r instead of the node's
// run entropy (nonces keep coming from the rand passed to NewNode). The
// split is what makes key material a pure function of a key seed alone:
// core.Cluster pins its keys with it so cached clusters and fresh ones
// derive byte-identical signatures, whatever run seed drew the nonces.
func WithKeyRand(r io.Reader) NodeOption {
	return func(c *nodeConfig) { c.keyRand = r }
}

// NewNode creates a correct key-distribution participant. It generates the
// node's key pair immediately (the paper's "generate a secret key S_i and
// an appropriate test predicate T_i"), drawing entropy from rand — or from
// the WithKeyRand reader, when key material is pinned separately.
func NewNode(cfg model.Config, id model.NodeID, scheme sig.Scheme, rand io.Reader, opts ...NodeOption) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !id.Valid(cfg.N) {
		return nil, fmt.Errorf("keydist: node id %v out of range for n=%d", id, cfg.N)
	}
	nc := nodeConfig{keyRand: rand}
	for _, opt := range opts {
		opt(&nc)
	}
	signer, err := scheme.Generate(nc.keyRand)
	if err != nil {
		return nil, fmt.Errorf("keydist: generate key for %v: %w", id, err)
	}
	n := &Node{
		id:      id,
		cfg:     cfg,
		scheme:  scheme,
		signer:  signer,
		rand:    rand,
		dir:     NewDirectory(),
		pending: make(map[model.NodeID]*pendingPeer),
	}
	// A node trivially knows its own predicate.
	n.dir.Accept(id, signer.Predicate())
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() model.NodeID { return n.id }

// Scheme returns the signature scheme the node's key pair belongs to.
func (n *Node) Scheme() sig.Scheme { return n.scheme }

// Signer returns the node's secret-key handle for use by later protocols.
func (n *Node) Signer() sig.Signer { return n.signer }

// Directory returns the node's accepted predicate map. It is only complete
// after the protocol run finishes.
func (n *Node) Directory() *Directory { return n.dir }

// Discoveries returns the protocol deviations this node observed. Key
// distribution itself does not require discovery for its guarantees, but
// deviations (duplicate predicates, bogus responses) are still deviations
// from all failure-free runs and are recorded for the experiments.
func (n *Node) Discoveries() []model.Discovery {
	out := make([]model.Discovery, len(n.discoveries))
	copy(out, n.discoveries)
	return out
}

// Finished reports protocol completion (sim.Finisher).
func (n *Node) Finished() bool { return n.finished }

// Accepted reports whether the protocol accepted a predicate for every
// peer — the failure-free outcome.
func (n *Node) Accepted() bool { return n.dir.Len() == n.cfg.N }

// Step implements the sim Process contract, executing Fig. 1 of the paper.
func (n *Node) Step(round int, received []model.Message) []model.Message {
	switch round {
	case RoundBroadcast:
		return n.broadcastPredicate()
	case RoundChallenge:
		return n.challengeAll(round, received)
	case RoundResponse:
		return n.respondAll(round, received)
	case RoundsTotal:
		n.acceptAll(round, received)
		n.finished = true
		return nil
	default:
		// Messages outside the protocol's rounds never occur in
		// failure-free runs; note the deviation and stay silent.
		if len(received) > 0 {
			n.discover(round, model.ReasonUnexpectedMessage,
				fmt.Sprintf("%d messages outside protocol rounds", len(received)))
		}
		return nil
	}
}

// broadcastPredicate implements "send T_i to all other nodes".
func (n *Node) broadcastPredicate() []model.Message {
	pred := n.signer.Predicate().Bytes()
	out := make([]model.Message, 0, n.cfg.N-1)
	for _, to := range n.cfg.Nodes() {
		if to == n.id {
			continue
		}
		out = append(out, model.Message{To: to, Kind: model.KindTestPredicate, Payload: pred})
	}
	return out
}

// challengeAll implements "for each received T_j: select a random number
// r_j, send {P_i, P_j, r_j} to P_j".
func (n *Node) challengeAll(round int, received []model.Message) []model.Message {
	var out []model.Message
	for _, m := range received {
		if m.Kind != model.KindTestPredicate {
			n.discover(round, model.ReasonUnexpectedMessage,
				fmt.Sprintf("%v sent %v during predicate broadcast", m.From, m.Kind))
			continue
		}
		pred, err := n.scheme.ParsePredicate(m.Payload)
		if err != nil {
			// An unparsable predicate can never be accepted; the sender
			// has forfeited authentication with this node.
			n.discover(round, model.ReasonBadFormat,
				fmt.Sprintf("unparsable predicate from %v: %v", m.From, err))
			continue
		}
		if prior, dup := n.pending[m.From]; dup {
			// No failure-free run delivers two predicates from one node.
			prior.duplicated = true
			n.discover(round, model.ReasonUnexpectedMessage,
				fmt.Sprintf("duplicate predicate from %v", m.From))
			continue
		}
		ch, err := NewChallenge(n.id, m.From, n.rand)
		if err != nil {
			// Entropy failure is an environment error, not a protocol
			// deviation; surface it loudly.
			panic(fmt.Sprintf("keydist: %v drawing nonce: %v", n.id, err))
		}
		n.pending[m.From] = &pendingPeer{pred: pred, challenge: ch}
		out = append(out, model.Message{To: m.From, Kind: model.KindChallenge, Payload: ch.Marshal()})
	}
	return out
}

// respondAll implements "for each received {P_j, P_i, r} from P_j: send
// {P_j, P_i, r}_{S_i} to P_j" — with the critical screen that the node
// signs only challenges naming itself and the true immediate sender.
func (n *Node) respondAll(round int, received []model.Message) []model.Message {
	var out []model.Message
	for _, m := range received {
		if m.Kind != model.KindChallenge {
			n.discover(round, model.ReasonUnexpectedMessage,
				fmt.Sprintf("%v sent %v during challenge round", m.From, m.Kind))
			continue
		}
		// ParseChallenge aliases the payload instead of copying the nonce;
		// safe here because the challenge is consumed within this round
		// (the response wire bytes copy the nonce) and never retained.
		ch, err := ParseChallenge(m.Payload)
		if err != nil {
			n.discover(round, model.ReasonBadFormat,
				fmt.Sprintf("unparsable challenge from %v: %v", m.From, err))
			continue
		}
		if !ShouldSign(ch, n.id, m.From) {
			// Refuse: the challenge names the wrong parties. Signing here
			// is exactly the hole that would let a faulty relay claim our
			// key, or claim another node's key with our help.
			n.discover(round, model.ReasonProtocol,
				fmt.Sprintf("challenge from %v names (%v,%v)", m.From, ch.Challenger, ch.Challenged))
			continue
		}
		resp, err := Respond(ch, n.signer)
		if err != nil {
			panic(fmt.Sprintf("keydist: %v signing challenge: %v", n.id, err))
		}
		out = append(out, model.Message{To: m.From, Kind: model.KindChallengeResponse, Payload: resp.Marshal()})
	}
	return out
}

// acceptAll implements the final rule: "if T_j({P_i, P_j, r}) = true and
// r = r_j: accept T_j as belonging to P_j".
func (n *Node) acceptAll(round int, received []model.Message) {
	for _, m := range received {
		if m.Kind != model.KindChallengeResponse {
			n.discover(round, model.ReasonUnexpectedMessage,
				fmt.Sprintf("%v sent %v during response round", m.From, m.Kind))
			continue
		}
		// Aliasing parse: the response is checked and dropped within this
		// round, so no copy of nonce or signature is needed.
		resp, err := ParseResponse(m.Payload)
		if err != nil {
			n.discover(round, model.ReasonBadFormat,
				fmt.Sprintf("unparsable response from %v: %v", m.From, err))
			continue
		}
		p, ok := n.pending[m.From]
		if !ok {
			n.discover(round, model.ReasonUnexpectedMessage,
				fmt.Sprintf("response from unchallenged node %v", m.From))
			continue
		}
		if p.duplicated {
			// The peer equivocated on its predicate; never accept it.
			continue
		}
		if err := VerifyResponse(p.challenge, resp, p.pred); err != nil {
			n.discover(round, model.ReasonBadSignature,
				fmt.Sprintf("response from %v: %v", m.From, err))
			continue
		}
		n.dir.Accept(m.From, p.pred)
	}
}

// discover records a deviation from all failure-free runs.
func (n *Node) discover(round int, reason model.FailureReason, detail string) {
	n.discoveries = append(n.discoveries, model.Discovery{
		Node:   n.id,
		Round:  round,
		Reason: reason,
		Detail: detail,
	})
}

// Package model defines the shared vocabulary of the failure-discovery
// system: node identities, wire messages, per-round views, and
// failure-discovery records.
//
// The types here mirror the model of computation in Borcherding (ICDCS 1995)
// §2: a fully connected network of n nodes communicating in synchronous
// rounds, where a node's view is the sequence of message sets it has
// received, and a failure is "discovered" when that view is inconsistent
// with every failure-free run of the protocol.
package model

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node (processor) in the system. IDs are dense
// integers in [0, n) so they can double as slice indices in the simulator
// and as the fixed positions P_0..P_{n-1} that the paper's protocols
// assume.
type NodeID int

// NoNode is the sentinel for "no node"; it is never a valid participant.
const NoNode NodeID = -1

// String renders the node in the paper's P_i notation.
func (id NodeID) String() string {
	if id == NoNode {
		return "P(none)"
	}
	return fmt.Sprintf("P%d", int(id))
}

// Valid reports whether the ID denotes a participant in a system of n nodes.
func (id NodeID) Valid(n int) bool { return id >= 0 && int(id) < n }

// Message is a wire envelope exchanged between two nodes in one round.
//
// Property N2 of the model (a receiver can identify the immediate sender)
// is represented by From being trustworthy: the simulator and the TCP
// transport both stamp From themselves, so a faulty node cannot spoof it.
type Message struct {
	// From is the immediate sender. Trustworthy per N2.
	From NodeID
	// To is the destination node.
	To NodeID
	// Round is the round in which the message is delivered (stamped by the
	// network, not the sender).
	Round int
	// Kind is a protocol-defined message discriminator.
	Kind MessageKind
	// Payload is the protocol-defined body, already canonically encoded.
	Payload []byte
}

// MessageKind discriminates the protocol message types used across the
// repository. Kinds are globally unique so traces from composed protocols
// (key distribution followed by failure discovery) remain unambiguous.
type MessageKind uint8

// Message kinds. Enums start at one so the zero value is detectably unset.
const (
	// KindInvalid is the zero value; no valid message uses it.
	KindInvalid MessageKind = iota
	// KindTestPredicate carries a node's public key (test predicate T_i)
	// during key distribution (paper Fig. 1, step 1).
	KindTestPredicate
	// KindChallenge carries the plaintext nonce challenge {P_i, P_j, r}
	// (paper Fig. 1, step 2).
	KindChallenge
	// KindChallengeResponse carries the signed challenge {P_j, P_i, r}_{S_i}
	// (paper Fig. 1, step 3).
	KindChallengeResponse
	// KindChainValue carries a chain-signed value for the authenticated
	// failure-discovery protocol (paper Fig. 2).
	KindChainValue
	// KindPlainValue carries an unsigned value for the non-authenticated
	// baseline protocol.
	KindPlainValue
	// KindEcho carries an unsigned echo of the sender's current value in
	// the non-authenticated baseline protocol.
	KindEcho
	// KindOral carries an oral-message relay for OM(t).
	KindOral
	// KindSigned carries a signed-message relay for SM(t).
	KindSigned
	// KindFault announces a discovered failure in the FD→BA extension.
	KindFault
	// KindFaultEcho relays a fault announcement in the FD→BA extension.
	KindFaultEcho
	// KindFallback carries fallback-phase evidence in the FD→BA extension.
	KindFallback
)

var messageKindNames = map[MessageKind]string{
	KindInvalid:           "invalid",
	KindTestPredicate:     "test-predicate",
	KindChallenge:         "challenge",
	KindChallengeResponse: "challenge-response",
	KindChainValue:        "chain-value",
	KindPlainValue:        "plain-value",
	KindEcho:              "echo",
	KindOral:              "oral",
	KindSigned:            "signed",
	KindFault:             "fault",
	KindFaultEcho:         "fault-echo",
	KindFallback:          "fallback",
}

// String implements fmt.Stringer.
func (k MessageKind) String() string {
	if s, ok := messageKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// View is a node's view of a run: for each round, the set of messages the
// node received in that round (paper §2). Views determine behaviour: a
// node's next action depends solely on its current view.
type View struct {
	// Node is the owner of the view.
	Node NodeID
	// Rounds holds one entry per completed round; Rounds[i] is the set of
	// messages received in round i+1 (rounds are 1-based in the paper's
	// prose; index 0 is round 1).
	Rounds [][]Message
}

// Len returns the number of completed rounds in the view.
func (v *View) Len() int { return len(v.Rounds) }

// Received returns the messages received in the given 1-based round, or nil
// if the round has not completed.
func (v *View) Received(round int) []Message {
	if round < 1 || round > len(v.Rounds) {
		return nil
	}
	return v.Rounds[round-1]
}

// FailureReason classifies why a node discovered a failure. The paper only
// requires noticing that a failure exists (not identifying the culprit);
// the reason is diagnostic metadata for tests and traces.
type FailureReason uint8

// Failure reasons.
const (
	// ReasonNone is the zero value; no failure.
	ReasonNone FailureReason = iota
	// ReasonBadSignature: a signature failed its test predicate.
	ReasonBadSignature
	// ReasonBadChain: a chain signature's structure or sub-message
	// assignment check failed (paper Theorem 4).
	ReasonBadChain
	// ReasonWrongSender: the outermost signature is not assignable to the
	// immediate sender (violates the N2 cross-check).
	ReasonWrongSender
	// ReasonMissingMessage: an expected message did not arrive in its round.
	ReasonMissingMessage
	// ReasonUnexpectedMessage: a message arrived that no failure-free run
	// delivers (wrong kind, wrong round, duplicate, or unknown sender).
	ReasonUnexpectedMessage
	// ReasonValueMismatch: two messages in the view carry inconsistent
	// values (non-authenticated echo check).
	ReasonValueMismatch
	// ReasonBadFormat: a payload failed to decode.
	ReasonBadFormat
	// ReasonUnknownKey: a signed message names a node whose test predicate
	// was never accepted during key distribution.
	ReasonUnknownKey
	// ReasonProtocol: any other deviation from the protocol's failure-free
	// message pattern.
	ReasonProtocol
)

var failureReasonNames = map[FailureReason]string{
	ReasonNone:              "none",
	ReasonBadSignature:      "bad-signature",
	ReasonBadChain:          "bad-chain",
	ReasonWrongSender:       "wrong-sender",
	ReasonMissingMessage:    "missing-message",
	ReasonUnexpectedMessage: "unexpected-message",
	ReasonValueMismatch:     "value-mismatch",
	ReasonBadFormat:         "bad-format",
	ReasonUnknownKey:        "unknown-key",
	ReasonProtocol:          "protocol-deviation",
}

// String implements fmt.Stringer.
func (r FailureReason) String() string {
	if s, ok := failureReasonNames[r]; ok {
		return s
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Discovery records that a node discovered a failure: in which round, why,
// and (when attributable) which message triggered it.
type Discovery struct {
	// Node is the discovering node.
	Node NodeID
	// Round is the round in which the view first deviated from all
	// failure-free runs.
	Round int
	// Reason classifies the deviation.
	Reason FailureReason
	// Detail is a human-readable explanation for traces and tests.
	Detail string
}

// String implements fmt.Stringer.
func (d Discovery) String() string {
	return fmt.Sprintf("%v discovered failure in round %d: %v (%s)",
		d.Node, d.Round, d.Reason, d.Detail)
}

// Outcome is the terminal state of one node after a failure-discovery run:
// either it chose a decision value, or it discovered a failure (weak
// termination, property F1, guarantees one of the two eventually holds).
type Outcome struct {
	// Node is the deciding node.
	Node NodeID
	// Decided reports whether the node chose a value.
	Decided bool
	// Value is the decision value when Decided.
	Value []byte
	// Discovery is set when the node discovered a failure instead.
	Discovery *Discovery
}

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch {
	case o.Decided:
		return fmt.Sprintf("%v decided %q", o.Node, o.Value)
	case o.Discovery != nil:
		return o.Discovery.String()
	default:
		return fmt.Sprintf("%v undecided", o.Node)
	}
}

// NodeSet is an ordered set of node IDs, used to describe fault placements
// and dissemination targets deterministically.
type NodeSet map[NodeID]bool

// NewNodeSet builds a set from the given IDs.
func NewNodeSet(ids ...NodeID) NodeSet {
	s := make(NodeSet, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Contains reports membership.
func (s NodeSet) Contains(id NodeID) bool { return s[id] }

// Add inserts id into the set.
func (s NodeSet) Add(id NodeID) { s[id] = true }

// Sorted returns the members in ascending order.
func (s NodeSet) Sorted() []NodeID {
	out := make([]NodeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set in {P0,P3,...} form.
func (s NodeSet) String() string {
	ids := s.Sorted()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// CloneAppend returns a fresh slice holding base followed by extra. The
// result never aliases base, and it is allocated with exactly the needed
// capacity in one shot — use it instead of the
// append(append([]NodeID(nil), base...), extra...) idiom, which allocates
// twice when the first append's capacity is exact and invites aliasing
// bugs when it is not.
func CloneAppend(base []NodeID, extra ...NodeID) []NodeID {
	out := make([]NodeID, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// AppendBroadcast appends one message of the given kind and payload
// addressed to every node except self, and returns the extended slice.
// The payload slice is shared across all n-1 messages. This is the
// protocols' broadcast idiom; it appends so callers can presize or reuse
// dst and avoids the per-call slice that Config.Nodes would allocate.
func AppendBroadcast(dst []Message, n int, self NodeID, kind MessageKind, payload []byte) []Message {
	for q := 0; q < n; q++ {
		if to := NodeID(q); to != self {
			dst = append(dst, Message{To: to, Kind: kind, Payload: payload})
		}
	}
	return dst
}

// Config captures the global parameters of a run: the system size and the
// fault tolerance target. It validates the basic sanity constraints shared
// by every protocol in the repository.
type Config struct {
	// N is the number of nodes.
	N int
	// T is the maximum number of faulty nodes the protocols must tolerate.
	T int
}

// Validate checks the structural constraints: at least two nodes, a
// non-negative fault bound, and t < n (with n−1 relays P_1..P_t plus the
// sender P_0, the chain protocol needs t+1 distinct nodes besides the tail).
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("model: need at least 2 nodes, got n=%d", c.N)
	}
	if c.T < 0 {
		return fmt.Errorf("model: fault bound must be non-negative, got t=%d", c.T)
	}
	if c.T >= c.N {
		return fmt.Errorf("model: fault bound t=%d must be < n=%d", c.T, c.N)
	}
	return nil
}

// Nodes returns all node IDs 0..n-1 in order.
func (c Config) Nodes() []NodeID {
	out := make([]NodeID, c.N)
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

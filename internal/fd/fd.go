// Package fd implements the Failure Discovery problem of Hadzilacos and
// Halpern and the protocols the paper builds on it.
//
// Failure Discovery asks for an algorithm guaranteeing, with up to t
// faulty nodes:
//
//	F1 (weak termination): each correct node eventually either chooses a
//	    decision value or discovers a failure;
//	F2 (weak agreement):   if no correct node discovers a failure, no two
//	    correct nodes choose different decision values;
//	F3 (weak validity):    if no correct node discovers a failure and the
//	    sender is correct, no correct node chooses a value different from
//	    the sender's initial value.
//
// The authenticated protocol of paper Fig. 2 — n−1 messages, the minimum,
// correct under global authentication and, by the paper's Theorems 2 and
// 4, equally correct under the local authentication established by
// package keydist — is written once, as one node's seat in one run
// (chainRun, chain.go), and run three ways:
//
//   - ChainNode (chain.go): Fig. 2 itself, sender P_0 as in the paper.
//   - SmallRangeNode (smallrange.go): the same run where silence stands
//     for the default bit, the "assign values to missing messages" idea
//     the paper cites from Hadzilacos & Halpern, simplified (§5).
//   - VectorNode (vector.go): n runs in the same rounds, instance s sent
//     by P_s, each chain framed with its instance.
//
// Beside it, NonAuthNode (nonauth.go) is the non-authenticated baseline
// with (t+1)(n−1) = O(n·t) messages, the complexity class the paper
// quotes for non-authenticated solutions.
//
// What each costs failure-free is declared once, by its driver in
// internal/protocol (protocol.VerdictProfile.FailureFree).
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - MarshalVectorPayload, UnmarshalVectorPayload: the codec the adversarial tests rewrite vector traffic with.
//   - Role.String: a String method.
//   - cited.Detail, valueOf: the sentences that cite values (a small-range chain's, a mismatched echo's), formatted
//     only when a discovery is read; no artifact prints one, TestDiscoveryTextPinned does.
package fd

import (
	"fmt"

	"repro/internal/model"
)

// Sender is the distinguished sender's node ID. The paper's protocols fix
// the sender as P_0; generalizing is a relabeling.
const Sender model.NodeID = 0

// Role describes a node's part in the chain protocol of Fig. 2.
type Role uint8

// Chain-protocol roles.
const (
	// RoleSender is P_0: signs its value and starts the chain.
	RoleSender Role = iota + 1
	// RoleRelay is P_i, 1 ≤ i < t: verifies, countersigns, forwards.
	RoleRelay
	// RoleDisseminator is P_t: verifies, countersigns, broadcasts to the
	// tail. When t = 0 the sender doubles as disseminator.
	RoleDisseminator
	// RoleTail is P_j, j > t: verifies the full chain and accepts.
	RoleTail
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleSender:
		return "sender"
	case RoleRelay:
		return "relay"
	case RoleDisseminator:
		return "disseminator"
	case RoleTail:
		return "tail"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// RoleOf returns the chain-protocol role of node id with fault bound t.
func RoleOf(id model.NodeID, t int) Role {
	switch {
	case id == Sender && t == 0:
		// With no faults tolerated the sender disseminates directly.
		return RoleDisseminator
	case id == Sender:
		return RoleSender
	case int(id) < t:
		return RoleRelay
	case int(id) == t:
		return RoleDisseminator
	default:
		return RoleTail
	}
}

// ChainEngineRounds returns the number of lockstep engine rounds a chain
// run needs: each communication round plus the final message-free
// verification step at the tail.
func ChainEngineRounds(t int) int { return t + 2 }

// NonAuthEngineRounds returns the engine rounds for the baseline: value
// broadcast, echo broadcast, and the message-free cross-check step.
func NonAuthEngineRounds(t int) int {
	if t == 0 {
		return 2 // broadcast + accept; no echo round
	}
	return 3
}

// Outcomer is implemented by every protocol node in this package: after a
// run, each node reports whether it decided or discovered a failure.
type Outcomer interface {
	// Outcome returns the node's terminal state for the run.
	Outcome() model.Outcome
}

// fact names the sentence a discovery of this package states. The
// sentence reads the discovery's own fields, so recording one formats
// nothing; the text is built when the discovery is read.
type fact uint8

const (
	factUnexpected    fact = iota // Kind message from Peer in round Round
	factMissingChain              // no chain from Peer by the deadline
	factChain                     // a chain from Peer failed: Err
	factChainLength               // Got signatures from Peer, Want expected
	factSmallRange                // a chain from Peer carries an invalid value
	factNoValueByEcho             // an echoer heard nothing from the sender
	factNoValue                   // nothing from the sender by the deadline
	factDuplicateEcho             // Peer echoed twice
	factNoEcho                    // Peer never echoed
	factEchoMismatch              // Peer's echo differs from the value
	factVectorKind                // a vector message of the wrong Kind
	factVectorPayload             // an unparsable vector payload from Peer
)

// Detail implements the model.Discovery sentence.
func (f fact) Detail(d model.Discovery) string { return f.detail(d, nil, nil) }

// detail formats f's sentence; got and want are the values a sentence
// cites, which a discovery's fields cannot hold (see cited).
func (f fact) detail(d model.Discovery, got, want []byte) string {
	switch f {
	case factUnexpected:
		return fmt.Sprintf("%v message from %v in round %d", d.Kind, d.Peer, d.Round)
	case factMissingChain:
		return fmt.Sprintf("no chain message from %v by round %d", d.Peer, d.Round)
	case factChain:
		return fmt.Sprintf("chain from %v: %v", d.Peer, d.Err)
	case factChainLength:
		return fmt.Sprintf("chain from %v has %d signatures, want %d", d.Peer, d.Got, d.Want)
	case factSmallRange:
		return fmt.Sprintf("chain from %v carries invalid small-range value %v", d.Peer, got)
	case factNoValueByEcho:
		return "no value from sender by echo round"
	case factNoValue:
		return "no value from sender"
	case factDuplicateEcho:
		return fmt.Sprintf("duplicate echo from %v", d.Peer)
	case factNoEcho:
		return fmt.Sprintf("no echo from %v", d.Peer)
	case factEchoMismatch:
		return fmt.Sprintf("echo from %v is %s, value is %s", d.Peer, valueOf(got), valueOf(want))
	case factVectorKind:
		return fmt.Sprintf("%v message from %v", d.Kind, d.Peer)
	case factVectorPayload:
		return fmt.Sprintf("unparsable vector payload from %v", d.Peer)
	}
	return fmt.Sprintf("fact(%d)", uint8(f))
}

// cited is a sentence that cites values. It is the one fact that costs
// an allocation, made only by the discoveries that need one: a chain
// carrying an invalid small-range value, an echo that differs.
type cited struct {
	fact
	got, want []byte
}

// Detail implements the model.Discovery sentence.
func (c *cited) Detail(d model.Discovery) string { return c.detail(d, c.got, c.want) }

// valueOf formats a decision value for diagnostics.
func valueOf(v []byte) string {
	if len(v) <= 16 {
		return fmt.Sprintf("%q", v)
	}
	return fmt.Sprintf("%q… (%d bytes)", v[:16], len(v))
}

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
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - SmallRangeMessages: the cost formula the unit tests assert.
//   - MarshalVectorPayload, UnmarshalVectorPayload: the codec the adversarial tests rewrite vector traffic with.
//   - Role.String: a String method.
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

// ChainMessages returns the chain protocol's message count in failure-free
// runs: one hop per relay plus the dissemination fan-out — always n−1,
// which Baum-Waidner showed is the minimum for agreement in the faultless
// case.
func ChainMessages(n, t int) int { return n - 1 }

// ChainCommunicationRounds returns the number of message-carrying rounds
// of the chain protocol: the t chain hops plus the dissemination round —
// except when t = n−1, where the chain already covers every node and no
// dissemination round exists.
func ChainCommunicationRounds(n, t int) int {
	if t == n-1 {
		return t
	}
	return t + 1
}

// ChainEngineRounds returns the number of lockstep engine rounds a chain
// run needs: each communication round plus the final message-free
// verification step at the tail.
func ChainEngineRounds(t int) int { return t + 2 }

// NonAuthMessages returns the non-authenticated baseline's message count
// in failure-free runs: the sender's broadcast plus t echo broadcasts,
// (t+1)(n−1) = O(n·t).
func NonAuthMessages(n, t int) int { return (t + 1) * (n - 1) }

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

// valueOf formats a decision value for diagnostics.
func valueOf(v []byte) string {
	if len(v) <= 16 {
		return fmt.Sprintf("%q", v)
	}
	return fmt.Sprintf("%q… (%d bytes)", v[:16], len(v))
}

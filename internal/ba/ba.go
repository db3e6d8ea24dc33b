// Package ba implements the Byzantine Agreement substrate the paper builds
// on and compares against:
//
//   - OM(t), the non-authenticated oral-messages algorithm of Lamport,
//     Shostak & Pease [4], via exponential information gathering (EIG).
//     Requires n > 3t and uses exponentially many relayed entries.
//   - SM(t), the signed-messages algorithm of the same paper: tolerates any
//     t < n under authentication, with O(n²) messages.
//   - FDBA, the Failure-Discovery-to-Byzantine-Agreement extension the
//     paper attributes to Hadzilacos & Halpern: run the linear
//     failure-discovery protocol; only when someone discovers a failure,
//     fall back to a signed-message flood. Failure-free runs cost the same
//     n−1 messages as failure discovery.
//
// SM(t) and FDBA's fallback are one signed flood (flood.go): open signs
// and broadcasts, relay applies the acceptance rule and extends what it
// accepts. Each owner brings only its admit rule — SM's "the chain starts
// at P_0 and its value joins V", FDBA's "the value is valid FD evidence".
//
// Byzantine Agreement requires, with up to t faulty nodes:
//
//	BA1 (agreement):  all correct nodes decide the same value;
//	BA2 (validity):   if the sender is correct, they decide its value.
//
// Under global authentication all three meet their guarantees. Under the
// paper's *local* authentication, failure discovery remains correct
// (paper §4), but full agreement does not in general — the paper's §6
// leaves BA under local authentication as an open question, and experiment
// E11 exhibits the concrete G3 attack that separates the two settings.
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - FDBANode.Decision, FDBANode.InFallback, SMNode.Decision, SMNode.ValueSet: accessors the behaviour tests read.
//   - Decision.String: a String method.
package ba

import (
	"bytes"
	"fmt"

	"repro/internal/model"
)

// Sender is the distinguished sender's node ID, fixed to P_0 as in the
// paper's protocols.
const Sender model.NodeID = 0

// DefaultValue is the fallback decision value when agreement evidence is
// absent or contradictory, playing the role of Lamport's RETREAT default.
var DefaultValue = []byte("\x00default")

// Decision is a node's terminal state in a Byzantine Agreement run.
type Decision struct {
	// Node is the deciding node.
	Node model.NodeID
	// Value is the decided value (possibly DefaultValue).
	Value []byte
}

// String implements fmt.Stringer.
func (d Decision) String() string {
	if bytes.Equal(d.Value, DefaultValue) {
		return fmt.Sprintf("%v decided DEFAULT", d.Node)
	}
	return fmt.Sprintf("%v decided %q", d.Node, d.Value)
}

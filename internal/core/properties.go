package core

import (
	"bytes"
	"fmt"

	"repro/internal/keydist"
	"repro/internal/model"
)

// Property checkers for the paper's F1–F3 (Failure Discovery) and G1–G2
// (key distribution, Theorem 2) conditions. Tests and the experiment
// harness assert THESE, the paper's theorems, rather than implementation
// details: an outcome set that passes F1–F3, or a set of post-setup
// directories that passes G1–G2, is a witness that the run met its
// specification. G3 — one predicate per node at all correct nodes — has
// no checker: local authentication does not promise it.
//
// The F-checkers take the set of faulty node IDs so they can restrict the
// conditions to correct nodes, exactly as the definitions do; so do the
// G-checkers, over Cluster.Nodes.

// PropertyViolation describes a failed F- or G-condition for diagnostics.
type PropertyViolation struct {
	// Property names the violated condition ("F1".."F3", "G1", "G2").
	Property string
	// Detail explains the violation.
	Detail string
}

// Error implements error.
func (v *PropertyViolation) Error() string {
	return fmt.Sprintf("core: %s violated: %s", v.Property, v.Detail)
}

// CheckF1 verifies weak termination: every correct node either chose a
// decision value or discovered a failure.
func CheckF1(outcomes []model.Outcome, faulty model.NodeSet) error {
	for _, o := range outcomes {
		if faulty.Contains(o.Node) {
			continue
		}
		if !o.Decided && o.Discovery == nil {
			return &PropertyViolation{
				Property: "F1",
				Detail:   fmt.Sprintf("%v neither decided nor discovered", o.Node),
			}
		}
	}
	return nil
}

// CheckF2 verifies weak agreement: if no correct node discovered a
// failure, no two correct nodes chose different decision values.
func CheckF2(outcomes []model.Outcome, faulty model.NodeSet) error {
	if anyCorrectDiscovered(outcomes, faulty) {
		return nil // condition vacuous: a failure was discovered
	}
	var first *model.Outcome
	for i := range outcomes {
		o := outcomes[i]
		if faulty.Contains(o.Node) || !o.Decided {
			continue
		}
		if first == nil {
			first = &outcomes[i]
			continue
		}
		if !bytes.Equal(o.Value, first.Value) {
			return &PropertyViolation{
				Property: "F2",
				Detail: fmt.Sprintf("%v chose %q but %v chose %q with no discovery",
					first.Node, first.Value, o.Node, o.Value),
			}
		}
	}
	return nil
}

// CheckF3 verifies weak validity: if no correct node discovered a failure
// and the sender is correct, no correct node chose a value different from
// the sender's initial value.
func CheckF3(outcomes []model.Outcome, faulty model.NodeSet, sender model.NodeID, initial []byte) error {
	if faulty.Contains(sender) || anyCorrectDiscovered(outcomes, faulty) {
		return nil // condition vacuous
	}
	for _, o := range outcomes {
		if faulty.Contains(o.Node) || !o.Decided {
			continue
		}
		if !bytes.Equal(o.Value, initial) {
			return &PropertyViolation{
				Property: "F3",
				Detail: fmt.Sprintf("%v chose %q, sender's initial value was %q",
					o.Node, o.Value, initial),
			}
		}
	}
	return nil
}

func anyCorrectDiscovered(outcomes []model.Outcome, faulty model.NodeSet) bool {
	for _, o := range outcomes {
		if !faulty.Contains(o.Node) && o.Discovery != nil {
			return true
		}
	}
	return false
}

// CheckG1 verifies that no faulty node passes for a correct one: no
// correct node accepted a correct node's predicate under a faulty node's
// identity. A nil slot is a faulty node that kept no keys.
func CheckG1(nodes []*keydist.Node, faulty model.NodeSet) error {
	correct := func(id int) bool { return nodes[id] != nil && !faulty.Contains(model.NodeID(id)) }
	for h, holder := range nodes {
		for id := range nodes {
			if !correct(h) || correct(id) {
				continue
			}
			p, ok := holder.Directory().PredicateOf(model.NodeID(id))
			if !ok {
				continue
			}
			for v, victim := range nodes {
				if correct(v) && p.Fingerprint() == victim.Signer().Predicate().Fingerprint() {
					return &PropertyViolation{
						Property: "G1",
						Detail: fmt.Sprintf("%v accepted %v's predicate for faulty %v",
							holder.ID(), victim.ID(), model.NodeID(id)),
					}
				}
			}
		}
	}
	return nil
}

// CheckG2 verifies that every correct node accepted, under every correct
// node's identity, that node's own predicate.
func CheckG2(nodes []*keydist.Node, faulty model.NodeSet) error {
	correct := func(id int) bool { return nodes[id] != nil && !faulty.Contains(model.NodeID(id)) }
	for h, holder := range nodes {
		for q, peer := range nodes {
			if !correct(h) || !correct(q) {
				continue
			}
			p, ok := holder.Directory().PredicateOf(peer.ID())
			if !ok || p.Fingerprint() != peer.Signer().Predicate().Fingerprint() {
				return &PropertyViolation{
					Property: "G2",
					Detail:   fmt.Sprintf("%v does not hold correct %v's own predicate", holder.ID(), peer.ID()),
				}
			}
		}
	}
	return nil
}

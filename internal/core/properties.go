package core

import (
	"bytes"
	"fmt"

	"repro/internal/model"
)

// Property checkers for the paper's F1–F3 (Failure Discovery) conditions.
// Tests and the experiment harness assert THESE, the paper's theorems,
// rather than implementation details: an outcome set that passes all
// three is a witness that the protocol run met its specification.
//
// The checkers take the set of faulty node IDs so they can restrict the
// conditions to correct nodes, exactly as the definitions do.

// PropertyViolation describes a failed F-condition for diagnostics.
type PropertyViolation struct {
	// Property names the violated condition ("F1", "F2", "F3").
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

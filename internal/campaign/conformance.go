package campaign

import (
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/protocol"
)

// Agreement conformance: every completed instance is evaluated against
// the paper's correctness predicates, so a campaign run doubles as a
// property test across the full protocol × scheme × adversary grid. The
// predicates are the weak failure-discovery conditions F1–F3 (paper §4)
// plus the round bound:
//
//   - termination: every correct node decided or discovered a failure,
//     within the protocol's round bound (weak termination, F1);
//   - agreement: absent any discovery, no two correct nodes decided
//     different values (weak agreement, F2);
//   - validity: absent any discovery and with a correct sender, every
//     correct decision equals the sender's value (weak validity, F3).
//
// How each protocol family reads the predicates is not decided here: the
// driver's protocol.VerdictMapper declares it. MayDisagree names the
// configurations whose disagreement the theory permits (their agreement
// and validity failures are recorded but never counted as violations —
// honest runs are never excused), and DiscoveryExempts distinguishes the
// weak-FD reading (a discovery makes F2/F3 vacuous) from the full
// agreement protocols (fdba, sm), whose fallback must align decisions
// even in runs where failures WERE discovered — for them the scorer
// strips discoveries before checking agreement and validity, making the
// check strictly stronger. Termination is never excused: weak
// termination is exactly what failure discovery buys at every
// authentication level.

// Predicate names recorded in Verdict.Violations.
const (
	PredTermination = "termination"
	PredAgreement   = "agreement"
	PredValidity    = "validity"
)

// Verdict is one instance's conformance evaluation.
type Verdict struct {
	// Termination, Agreement, Validity are the raw predicate results.
	Termination bool `json:"termination"`
	Agreement   bool `json:"agreement"`
	Validity    bool `json:"validity"`
	// MayDisagree marks configurations whose disagreement the driver's
	// verdict mapper permits (e.g. non-authenticated protocols with
	// n ≤ 3t): their agreement and validity failures are expected, not
	// violations.
	MayDisagree bool `json:"may_disagree,omitempty"`
	// NetExcused marks instances whose network condition degrades links
	// (latency, loss, reordering, bandwidth, partitions): every paper
	// guarantee — termination included — is premised on the synchronous
	// network assumption N1, so predicate failures under link degradation
	// are recorded but never counted as violations. Churn-only conditions
	// leave N1 intact (a crashed-and-restarted node is just a faulty node)
	// and are scored in full.
	NetExcused bool `json:"net_excused,omitempty"`
	// Violations lists the predicates that failed and were not excused,
	// in the fixed termination/agreement/validity order.
	Violations []string `json:"violations,omitempty"`
}

// Conformant reports whether the instance met every unexcused predicate.
func (v *Verdict) Conformant() bool { return v != nil && len(v.Violations) == 0 }

// newVerdict assembles a Verdict, recording a violation for every failed
// predicate the driver's theory does not excuse. netExcused suppresses
// all violations (the raw predicate results stay visible): no paper
// guarantee survives a broken N1.
func newVerdict(termination, agreement, validity, mayDisagree, netExcused bool) *Verdict {
	v := &Verdict{
		Termination: termination,
		Agreement:   agreement,
		Validity:    validity,
		MayDisagree: mayDisagree,
		NetExcused:  netExcused,
	}
	if netExcused {
		return v
	}
	if !termination {
		v.Violations = append(v.Violations, PredTermination)
	}
	if !agreement && !v.MayDisagree {
		v.Violations = append(v.Violations, PredAgreement)
	}
	if !validity && !v.MayDisagree {
		v.Violations = append(v.Violations, PredValidity)
	}
	return v
}

// scoreOutcome derives one instance's verdict from a driver outcome:
// every SubRun is evaluated against F1–F3 plus the round bound, and the
// predicates must hold in all of them (vector's rotated sub-instances).
func scoreOutcome(drv protocol.Driver, pinst protocol.Instance, out protocol.Outcome) *Verdict {
	verdicts := drv.Verdicts()
	// Honest configurations are never excused (a fault-free run that fails
	// to agree is a bug regardless of protocol); otherwise the driver's
	// verdict mapper decides. "Honest" means neither the strategy nor the
	// network injects faults: churn makes nodes faulty, so a churned run
	// may legitimately hit the driver's MayDisagree regime even under an
	// honest strategy.
	honest := pinst.Strategy.IsHonest() && (pinst.Net == nil || pinst.Net.IsIdeal())
	may := !honest && verdicts.MayDisagree(pinst.N, pinst.T)
	netExcused := pinst.Net != nil && pinst.Net.DegradesLinks()
	if len(out.SubRuns) == 0 {
		// No conformance material is itself a violation: a driver that
		// reports nothing to score must not silently pass the -strict
		// gate. Even a degraded network does not excuse it — the excusal
		// covers predicate failures, not missing material.
		v := newVerdict(false, false, false, may, false)
		v.NetExcused = netExcused
		return v
	}
	faulty := pinst.Faulty()
	termination, agreement, validity := true, true, true
	for _, sr := range out.SubRuns {
		t, a, v := evaluateSubRun(sr, faulty, out.Rounds, out.RoundBound, verdicts.DiscoveryExempts())
		termination = termination && t
		agreement = agreement && a
		validity = validity && v
	}
	return newVerdict(termination, agreement, validity, may, netExcused)
}

// evaluateSubRun runs the core property checkers over one sub-run's
// outcomes. outcomes must cover the correct nodes only (the drivers
// exclude overridden and wrapped processes). When discoveries do not
// exempt (full agreement protocols), F2/F3 run over outcomes with the
// discoveries stripped, so agreement and validity are checked
// unconditionally.
func evaluateSubRun(sr protocol.SubRun, faulty model.NodeSet, rounds, roundBound int,
	discoveryExempts bool) (termination, agreement, validity bool) {
	outcomes := sr.Outcomes
	termination = core.CheckF1(outcomes, faulty) == nil && rounds <= roundBound
	if !discoveryExempts {
		outcomes = withoutDiscoveries(outcomes)
	}
	agreement = core.CheckF2(outcomes, faulty) == nil
	validity = core.CheckF3(outcomes, faulty, sr.Sender, sr.Initial) == nil
	return termination, agreement, validity
}

// withoutDiscoveries returns the outcomes with Discovery cleared, leaving
// the originals untouched. A no-op (no copy) when nothing is set.
func withoutDiscoveries(outcomes []model.Outcome) []model.Outcome {
	stripped := outcomes
	copied := false
	for i, o := range outcomes {
		if o.Discovery == nil {
			continue
		}
		if !copied {
			stripped = append([]model.Outcome(nil), outcomes...)
			copied = true
		}
		stripped[i].Discovery = nil
	}
	return stripped
}

package campaign

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/protocol"
	"repro/internal/sig"
)

// The key-distribution attacks as a campaign axis: Borcherding's setting
// is local authentication, where a faulty node may give different peers
// different keys, and the chain protocol must still meet F1–F3 (Theorem
// 4) while G1/G2 hold for the correct nodes (Theorem 2).

// setupAttacks are the five setup= strategies, as CI's conformance
// smoke sweeps them.
var setupAttacks = []string{
	"sender:setup=foreign-claim",
	"relay:setup=relay-challenge",
	"sender:setup=equivocate-keys",
	"nodes=1+2:setup=shared-key",
	"relay:setup=silent",
}

// TestChainUnderCorruptSetups: chain under every setup attack at n ∈ {4,
// 7, 10} has no unexcused violation — G1 and G2 included — and every
// instance discovers: each attack leaves a faulty node whose signature
// some correct node cannot check.
func TestChainUnderCorruptSetups(t *testing.T) {
	rep, err := Run(Spec{
		Name:        "chain-corrupt-setups",
		Protocols:   []string{ProtoChain},
		Sizes:       []int{4, 7, 10},
		Schemes:     []string{sig.SchemeToy, sig.SchemeEd25519},
		Adversaries: setupAttacks,
		SeedBase:    49,
		SeedCount:   3,
	}, 2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Results) != 2*3*(3*5-1) { // shared-key corrupts two: not at n=4, t=1
		t.Fatalf("%d instances", len(rep.Results))
	}
	for _, res := range rep.Results {
		if res.Err != "" || !res.Conformance.Conformant() || !res.Discovered {
			t.Errorf("%s seed %d: err %q, verdict %+v, discovered %v", res.Group, res.Seed, res.Err, res.Conformance, res.Discovered)
		}
	}
}

// TestAgreementSplitsUnderTwoKeys: the §6 attack. SM(t) and FDBA under a
// sender that showed two keys disagree in every instance, and the
// disagreement is excused (VerdictsAgreement's one excusal), so the
// sweep is conformant; under the other attacks they agree.
func TestAgreementSplitsUnderTwoKeys(t *testing.T) {
	rep, err := Run(Spec{
		Name:        "agreement-corrupt-setups",
		Protocols:   []string{ProtoSM, ProtoFDBA},
		Cases:       []Case{{N: 4, T: 1}, {N: 7, T: 2}},
		Schemes:     []string{sig.SchemeToy},
		Adversaries: setupAttacks,
		SeedBase:    49,
		SeedCount:   3,
	}, 2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, res := range rep.Results {
		keys := strings.HasSuffix(res.Group, "/nodes-0.setup-equivocate-keys")
		v := res.Conformance
		if res.Err != "" || !v.Conformant() || v.Agreement == keys || v.MayDisagree != keys {
			t.Errorf("%s seed %d: err %q, verdict %+v", res.Group, res.Seed, res.Err, v)
		}
	}
}

// TestSetupViolationsAreNeverExcused: a G1 or G2 failure of a corrupt
// setup is a violation whatever excuses the run's own predicates — a
// degraded network included.
func TestSetupViolationsAreNeverExcused(t *testing.T) {
	drv, err := protocol.Lookup(ProtoSM)
	if err != nil {
		t.Fatal(err)
	}
	inst := Instance{Protocol: ProtoSM, N: 4, T: 1, Adversary: "sender:setup=equivocate-keys"}
	_, pinst, err := inst.resolve()
	if err != nil {
		t.Fatal(err)
	}
	loss := netcond.Spec{Loss: 0.5}
	pinst.Net = &loss
	split := []model.Outcome{{Node: 1, Decided: true, Value: []byte("v")}, {Node: 2, Decided: true, Value: []byte("x")}}
	v := scoreOutcome(drv, pinst, protocol.Outcome{Rounds: 1, RoundBound: 3, SetupViolations: []string{"G1"},
		SubRuns: []protocol.SubRun{{Sender: 0, Initial: []byte("v"), Outcomes: split}}})
	if !v.NetExcused || v.Agreement || !slices.Equal(v.Violations, []string{"G1"}) {
		t.Errorf("verdict %+v, want the split excused and G1 its one violation", v)
	}
}

package campaign

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sig"
)

// mkOutcomes builds decided outcomes for nodes 1..count with the given
// values (node 0 is left to the caller's faulty set).
func decidedOutcomes(values ...string) []model.Outcome {
	out := make([]model.Outcome, len(values))
	for i, v := range values {
		out[i] = model.Outcome{Node: model.NodeID(i + 1), Decided: true, Value: []byte(v)}
	}
	return out
}

// scoreSynthetic scores one hand-built sub-run (sender P0 proposing "v")
// the way campaigns score a driver's: through scoreOutcome, on the
// instance's resolved driver and strategy. wantFaulty pins the faulty set
// the instance's strategy yields, which the outcomes were written against.
func scoreSynthetic(t *testing.T, inst Instance, wantFaulty model.NodeSet, outcomes []model.Outcome, rounds, bound int) *Verdict {
	t.Helper()
	drv, pinst, err := inst.resolve()
	if err != nil {
		t.Fatalf("resolve %+v: %v", inst, err)
	}
	if got := pinst.Faulty(); !reflect.DeepEqual(got, wantFaulty) {
		t.Fatalf("adversary %q corrupts %v, want %v", inst.Adversary, got.Sorted(), wantFaulty.Sorted())
	}
	// The synthetic run costs what its driver declares, so only the
	// predicates under test can fail.
	var traffic metrics.Snapshot
	traffic.Messages, traffic.CommunicationRounds = drv.Verdicts().FailureFree(pinst)
	return scoreOutcome(drv, pinst, protocol.Outcome{Rounds: rounds, RoundBound: bound, Snapshot: traffic,
		SubRuns: []protocol.SubRun{{Sender: 0, Initial: []byte("v"), Outcomes: outcomes}}})
}

// TestVerdictPredicates drives the scorer with synthetic outcomes: the
// predicate logic, including the expected-failure excusals, without
// running a protocol.
func TestVerdictPredicates(t *testing.T) {
	faultySender := model.NewNodeSet(0)
	honest := model.NewNodeSet()
	crashRelay := Instance{Protocol: ProtoChain, N: 4, T: 1, Adversary: AdvCrashRelay}
	for _, tc := range []struct {
		name           string
		inst           Instance
		outcomes       []model.Outcome
		faulty         model.NodeSet
		rounds, bound  int
		wantConformant bool
		wantViolations []string
		wantMay        bool
	}{
		{"all agree", crashRelay.withAdv(AdvNone), decidedOutcomes("v", "v", "v"), honest, 3, 3, true, nil, false},
		{"chain disagreement is a violation",
			crashRelay, decidedOutcomes("v", "x", "v"), model.NewNodeSet(1), 3, 3,
			false, []string{PredAgreement, PredValidity}, false},
		{"discovery makes agreement vacuous",
			crashRelay,
			append(decidedOutcomes("v", "x"),
				model.Outcome{Node: 3, Discovery: &model.Discovery{Node: 3, Round: 2}}),
			model.NewNodeSet(1), 3, 3, true, nil, false},
		{"undecided without discovery violates termination",
			crashRelay,
			append(decidedOutcomes("v", "v"), model.Outcome{Node: 3}),
			model.NewNodeSet(1), 3, 3, false, []string{PredTermination}, false},
		{"round bound overrun violates termination",
			crashRelay.withAdv(AdvNone), decidedOutcomes("v", "v", "v"), honest, 4, 3,
			false, []string{PredTermination}, false},
		{"nonauth below 3t may disagree",
			Instance{Protocol: ProtoNonAuth, N: 4, T: 2, Adversary: AdvCrashRelay},
			decidedOutcomes("v", "x", "v"), model.NewNodeSet(1), 3, 5, true, nil, true},
		{"nonauth above 3t may not",
			Instance{Protocol: ProtoNonAuth, N: 7, T: 2, Adversary: AdvCrashRelay},
			decidedOutcomes("v", "x", "v"), model.NewNodeSet(1), 3, 5,
			false, []string{PredAgreement, PredValidity}, false},
		{"honest nonauth below 3t is not excused",
			Instance{Protocol: ProtoNonAuth, N: 4, T: 2, Adversary: AdvNone},
			decidedOutcomes("v", "x", "v"), honest, 3, 5,
			false, []string{PredAgreement, PredValidity}, false},
		{"smallrange under faults may disagree",
			Instance{Protocol: ProtoSmallRange, N: 5, T: 1, Adversary: AdvCrashRelay},
			decidedOutcomes("\x00", "\x01", "\x00"), model.NewNodeSet(1), 3, 3, true, nil, true},
		{"honest smallrange is not excused",
			Instance{Protocol: ProtoSmallRange, N: 5, T: 1, Adversary: AdvNone},
			decidedOutcomes("\x00", "\x01", "\x00"), honest, 3, 3,
			false, []string{PredAgreement, PredValidity}, false},
		{"sm under a two-keyed sender may disagree (§6)",
			Instance{Protocol: ProtoSM, N: 4, T: 1, Adversary: "sender:setup=equivocate-keys"},
			decidedOutcomes("v", "x", "x"), faultySender, 3, 3, true, nil, true},
		{"sm under a foreign claim may not",
			Instance{Protocol: ProtoSM, N: 4, T: 1, Adversary: "sender:setup=foreign-claim"},
			decidedOutcomes("v", "x", "x"), faultySender, 3, 3, false, []string{PredAgreement}, false},
		{"chain under a two-keyed sender may not",
			Instance{Protocol: ProtoChain, N: 4, T: 1, Adversary: "sender:setup=equivocate-keys"},
			decidedOutcomes("v", "x", "x"), faultySender, 3, 3, false, []string{PredAgreement}, false},
		{"faulty sender makes validity vacuous",
			Instance{Protocol: ProtoChain, N: 4, T: 1, Adversary: AdvCrashSender},
			decidedOutcomes("x", "x", "x"), faultySender, 3, 3, true, nil, false},
	} {
		v := scoreSynthetic(t, tc.inst, tc.faulty, tc.outcomes, tc.rounds, tc.bound)
		if v.Conformant() != tc.wantConformant {
			t.Errorf("%s: conformant = %v, want %v (verdict %+v)", tc.name, v.Conformant(), tc.wantConformant, v)
		}
		if strings.Join(v.Violations, ",") != strings.Join(tc.wantViolations, ",") {
			t.Errorf("%s: violations = %v, want %v", tc.name, v.Violations, tc.wantViolations)
		}
		if v.MayDisagree != tc.wantMay {
			t.Errorf("%s: may_disagree = %v, want %v", tc.name, v.MayDisagree, tc.wantMay)
		}
	}
}

// withAdv returns a copy of the instance under another adversary name.
func (inst Instance) withAdv(name string) Instance {
	inst.Adversary = name
	inst.Strategy = adversary.Strategy{}
	return inst
}

func TestVerdictConformantNil(t *testing.T) {
	var v *Verdict
	if v.Conformant() {
		t.Error("nil verdict reported conformant")
	}
}

// TestRunInstanceConformance runs real instances across every protocol
// and checks the verdicts the paper predicts.
func TestRunInstanceConformance(t *testing.T) {
	for _, tc := range []struct {
		name           string
		inst           Instance
		wantConformant bool
		wantAgreement  bool
		wantMay        bool
	}{
		{"chain honest",
			Instance{Protocol: ProtoChain, N: 5, T: 1, Scheme: sig.SchemeToy, Adversary: AdvNone, Seed: 1},
			true, true, false},
		{"chain crash-relay discovers",
			Instance{Protocol: ProtoChain, N: 5, T: 1, Scheme: sig.SchemeToy, Adversary: AdvCrashRelay, Seed: 1},
			true, true, false},
		{"chain equivocate discovers",
			Instance{Protocol: ProtoChain, N: 6, T: 2, Scheme: sig.SchemeToy, Adversary: AdvEquivocate, Seed: 1},
			true, true, false},
		{"smallrange crash-relay disagrees silently but is excused",
			Instance{Protocol: ProtoSmallRange, N: 5, T: 1, Scheme: sig.SchemeToy, Adversary: AdvCrashRelay, Seed: 1},
			true, false, true},
		{"vector crash-relay",
			Instance{Protocol: ProtoVector, N: 4, T: 1, Scheme: sig.SchemeToy, Adversary: AdvCrashRelay, Seed: 1},
			true, true, false},
		{"eig equivocate agrees (n > 3t)",
			Instance{Protocol: ProtoEIG, N: 7, T: 2, Adversary: AdvEquivocate, Seed: 1},
			true, true, false},
		{"chain delayed relay",
			Instance{Protocol: ProtoChain, N: 5, T: 1, Scheme: sig.SchemeToy,
				Adversary: "relay:behavior=delay,delay=2", Seed: 1},
			true, true, false},
		{"nonauth tampering echoer",
			Instance{Protocol: ProtoNonAuth, N: 5, T: 1,
				Adversary: "relay:behavior=tamper", Seed: 1},
			true, true, false},
	} {
		res := RunInstance(tc.inst)
		if res.Err != "" {
			t.Errorf("%s: error: %s", tc.name, res.Err)
			continue
		}
		v := res.Conformance
		if v == nil {
			t.Errorf("%s: no conformance verdict", tc.name)
			continue
		}
		if v.Conformant() != tc.wantConformant || v.Agreement != tc.wantAgreement || v.MayDisagree != tc.wantMay {
			t.Errorf("%s: verdict %+v, want conformant=%v agreement=%v may=%v",
				tc.name, v, tc.wantConformant, tc.wantAgreement, tc.wantMay)
		}
		if !v.Termination {
			t.Errorf("%s: termination failed: %+v", tc.name, v)
		}
	}
}

// TestErroredInstanceHasNoVerdict pins that failed runs carry no verdict.
func TestErroredInstanceHasNoVerdict(t *testing.T) {
	res := RunInstance(Instance{Protocol: ProtoChain, N: 5, T: 1, Scheme: "no-such-scheme", Seed: 1})
	if res.Err == "" {
		t.Fatal("bad scheme did not error")
	}
	if res.Conformance != nil {
		t.Errorf("errored instance carries a verdict: %+v", res.Conformance)
	}
}

// TestSmallRangeNonBitValueErrors pins that a small-range value other than
// 0 or 1 errors the instance: reduced to its low bit, it used to run
// honestly and be scored as a validity violation against the caller's
// value.
func TestSmallRangeNonBitValueErrors(t *testing.T) {
	for _, v := range []byte{2, 3} {
		res := RunInstance(Instance{Protocol: ProtoSmallRange, N: 7, T: 2, Scheme: sig.SchemeEd25519,
			Adversary: AdvNone, Seed: 1, Value: []byte{v}})
		if res.Err == "" {
			t.Errorf("value %d: no error, verdict %+v", v, res.Conformance)
		}
		if res.Conformance != nil {
			t.Errorf("value %d: errored instance carries a verdict: %+v", v, res.Conformance)
		}
	}
}

// TestReportConformanceAggregation feeds assemble synthetic results and
// checks the group tallies and the report-level violation count.
func TestReportConformanceAggregation(t *testing.T) {
	spec := Spec{
		Name:      "agg",
		Protocols: []string{ProtoChain},
		Cases:     []Case{{N: 4, T: 1}},
		Schemes:   []string{sig.SchemeToy},
		SeedBase:  1,
		SeedCount: 3,
	}
	instances, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	results := make([]Result, len(instances))
	for i, inst := range instances {
		results[i] = Result{Index: inst.Index, Group: inst.GroupKey(), Seed: inst.Seed}
	}
	results[0].Conformance = &Verdict{Termination: true, Agreement: true, Validity: true}
	results[1].Conformance = &Verdict{Termination: true, Agreement: false, Validity: false,
		Violations: []string{PredAgreement, PredValidity}}
	results[2].Err = "boom"
	rep := assemble(spec.withDefaults(), instances, results)
	if got := rep.Violations(); got != 1 {
		t.Errorf("Violations() = %d, want 1", got)
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(rep.Groups))
	}
	g := rep.Groups[0]
	if g.Conformant != 1 || g.Errors != 1 {
		t.Errorf("group conformant=%d errors=%d, want 1/1", g.Conformant, g.Errors)
	}
	if strings.Join(g.Violations, ",") != PredAgreement+","+PredValidity {
		t.Errorf("group violations = %v", g.Violations)
	}
}

// TestCampaignGridIsConformant is the harness-as-property-test claim: a
// sweep across every registered protocol driver and each behavior family
// (including a seeded coalition and delayed delivery) completes with
// zero unexcused violations — and the verdicts are present in every
// result.
func TestCampaignGridIsConformant(t *testing.T) {
	spec := Spec{
		Name:      "conformance-grid",
		Protocols: protocol.Names(),
		Sizes:     []int{4, 7},
		Schemes:   []string{sig.SchemeToy},
		Adversaries: []string{
			AdvNone,
			AdvCrashSender,
			AdvEquivocate,
			"coalition:size=1,behavior=delay,delay=2",
			"relay:behavior=drop,victims=2+3",
			"nodes=1:behavior=duplicate,victims=0,behavior=tamper",
		},
		SeedBase:  5,
		SeedCount: 3,
	}
	rep, err := Run(spec, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := rep.Violations(); got != 0 {
		for _, g := range rep.Groups {
			if len(g.Violations) > 0 {
				t.Errorf("group %s: violations %v (%d/%d conformant)", g.Key, g.Violations, g.Conformant, g.Instances)
			}
		}
		t.Fatalf("grid recorded %d violations", got)
	}
	for _, res := range rep.Results {
		if res.Err != "" {
			t.Errorf("instance %d errored: %s", res.Index, res.Err)
			continue
		}
		if res.Conformance == nil {
			t.Errorf("instance %d has no verdict", res.Index)
		}
	}
}

// TestEmptySubRunsIsViolation pins the scorer's guard: a driver outcome
// carrying no conformance material must not pass the -strict gate as
// vacuously conformant.
func TestEmptySubRunsIsViolation(t *testing.T) {
	drv, err := protocol.Lookup(ProtoChain)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	v := scoreOutcome(drv, protocol.Instance{N: 4, T: 1}, protocol.Outcome{})
	if v.Conformant() {
		t.Errorf("outcome with zero sub-runs scored conformant: %+v", v)
	}
}

// TestHonestRunsCostWhatTheirDriverDeclares runs every registered
// driver that declares a failure-free cost honestly on the ideal network
// and holds the run's protocol-phase messages and communication rounds
// to the declaration: at t = 0, at t = n−1, at (8, 2) and (16, 5), and
// small-range with either bit. A declaration that is off shows here
// before any campaign reports complexity.
func TestHonestRunsCostWhatTheirDriverDeclares(t *testing.T) {
	cases := []struct {
		n, t  int
		value []byte
	}{{4, 0, nil}, {2, 1, nil}, {5, 4, nil}, {8, 2, nil}, {16, 5, nil}, {8, 2, []byte{0}}, {8, 2, []byte{1}}}
	for _, drv := range protocol.Drivers() {
		profile := drv.Verdicts()
		if profile.FailureFree == nil {
			continue
		}
		caps := drv.Capabilities()
		for _, tc := range cases {
			if tc.value != nil && drv.Name() != ProtoSmallRange {
				continue
			}
			inst := Instance{Protocol: drv.Name(), N: tc.n, T: tc.t, Value: tc.value, Seed: 7, KeySeed: 7}
			if !caps.Supports(tc.n, tc.t, adversary.Strategy{}) {
				continue
			}
			if caps.UsesSignatures {
				inst.Scheme = sig.SchemeToy
			}
			res := RunInstance(inst)
			if res.Err != "" {
				t.Fatalf("%s n=%d t=%d: %s", drv.Name(), tc.n, tc.t, res.Err)
			}
			msgs, rounds := profile.FailureFree(protocol.Instance{N: tc.n, T: tc.t, Value: tc.value})
			if res.Messages != msgs || res.CommRounds != rounds {
				t.Errorf("%s n=%d t=%d value=%v: %d messages in %d rounds, declared %d in %d",
					drv.Name(), tc.n, tc.t, tc.value, res.Messages, res.CommRounds, msgs, rounds)
			}
			if !res.Conformance.Conformant() {
				t.Errorf("%s n=%d t=%d value=%v: violations %v", drv.Name(), tc.n, tc.t, tc.value, res.Conformance.Violations)
			}
		}
	}
}

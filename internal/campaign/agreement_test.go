package campaign

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sig"
)

// Conformance coverage for the two full agreement protocols (fdba, sm)
// under the composable adversary grid. Their verdict mapping is the
// STRICT reading of F1–F3: a discovery never exempts a run from the
// agreement and validity predicates (the FDBA fallback's whole job is to
// align decisions after a discovery), and no (n, t) configuration is
// excused. Empirically neither protocol has an analogue of smallrange's
// silence-as-default gap under honest key distribution: the sweeps below
// pass with ZERO excusals — which is exactly why their drivers register
// protocol.VerdictsAgreement and not a MayDisagree escape. (The known
// gap for both protocols is the paper's §6 LOCAL-authentication G3
// attack, which needs a corrupt key-distribution phase: the
// setup=equivocate-keys strategy, the one excusal VerdictsAgreement
// makes, swept in setup_test.go. The grid below distributes keys
// honestly.)

// agreementGridSpec sweeps fdba and sm across coalition, equivocate, and
// delay stacks (plus drops, duplicate floods, and tampering) — the
// behavior families of the conformance harness.
func agreementGridSpec() Spec {
	return Spec{
		Name:      "agreement-grid",
		Protocols: []string{ProtoFDBA, ProtoSM},
		Sizes:     []int{4, 7},
		Schemes:   []string{sig.SchemeToy},
		Adversaries: []string{
			AdvNone,
			AdvCrashSender,
			AdvCrashRelay,
			AdvEquivocate,
			"coalition:size=1,behavior=delay,delay=2",
			"coalition:size=2,behavior=equivocate,partition=even-odd",
			"relay:behavior=drop,victims=2+3",
			"nodes=1:behavior=duplicate,victims=0,behavior=tamper",
		},
		SeedBase:  31,
		SeedCount: 4,
	}
}

// TestAgreementProtocolConformanceGrid runs the fdba/sm adversary sweep
// and requires full conformance: every verdict present, zero unexcused
// violations, and — stronger — zero excusals at all (MayDisagree never
// set) plus an agree rate of 1 in EVERY group: full agreement protocols
// agree under any tolerated fault mix, not just absent discoveries.
func TestAgreementProtocolConformanceGrid(t *testing.T) {
	rep, err := Run(agreementGridSpec(), 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := rep.Violations(); got != 0 {
		for _, g := range rep.Groups {
			if len(g.Violations) > 0 {
				t.Errorf("group %s: violations %v (%d/%d conformant)",
					g.Key, g.Violations, g.Conformant, g.Instances)
			}
		}
		t.Fatalf("agreement grid recorded %d violations", got)
	}
	for _, res := range rep.Results {
		if res.Err != "" {
			t.Errorf("instance %d errored: %s", res.Index, res.Err)
			continue
		}
		v := res.Conformance
		if v == nil {
			t.Errorf("instance %d has no verdict", res.Index)
			continue
		}
		if v.MayDisagree {
			t.Errorf("instance %d (%s) was excused; agreement protocols carry no excusals", res.Index, res.Group)
		}
		if !res.Agreed {
			t.Errorf("instance %d (%s) did not agree", res.Index, res.Group)
		}
	}
	// The grid must include the behavior families the satellite names.
	for _, fragment := range []string{"coalition-2.equivocate-even-odd", "coalition-1.delay-2", "equivocate"} {
		found := false
		for _, g := range rep.Groups {
			if strings.Contains(g.Key, fragment) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("agreement grid has no %q groups", fragment)
		}
	}
	// FDBA's fallback must actually have been exercised: crash-relay
	// kills the chain, someone discovers, and the discovery rate shows it.
	exercised := false
	for _, g := range rep.Groups {
		if g.Protocol == ProtoFDBA && g.Adversary == AdvCrashRelay && g.DiscoveryRate > 0 {
			exercised = true
		}
	}
	if !exercised {
		t.Error("no fdba crash-relay group discovered; the fallback phase went untested")
	}
}

// TestAgreementVerdictIsStrict pins the DiscoveryExempts=false reading
// end to end: for an fdba instance, a synthetic split decision WITH a
// discovery present must still be a violation (the weak-FD reading would
// have excused it), while the same outcomes under the chain protocol are
// excused as vacuous.
func TestAgreementVerdictIsStrict(t *testing.T) {
	outcomes := []model.Outcome{
		{Node: 1, Decided: true, Value: []byte("v"),
			Discovery: &model.Discovery{Node: 1, Round: 2}},
		{Node: 3, Decided: true, Value: []byte("x")},
	}
	faulty := model.NewNodeSet(2)

	const crashP2 = "nodes=2:behavior=crash"
	fdbaInst := Instance{Protocol: ProtoFDBA, N: 4, T: 1, Adversary: crashP2}
	v := scoreSynthetic(t, fdbaInst, faulty, outcomes, 3, 8)
	if v.Conformant() {
		t.Errorf("fdba split decision under discovery was not a violation: %+v", v)
	}
	if v.Agreement || v.Validity {
		t.Errorf("fdba verdict did not check agreement/validity strictly: %+v", v)
	}

	chainInst := Instance{Protocol: ProtoChain, N: 4, T: 1, Adversary: crashP2}
	v = scoreSynthetic(t, chainInst, faulty, outcomes, 3, 3)
	if !v.Conformant() {
		t.Errorf("chain split decision under discovery must be vacuously conformant (weak F2): %+v", v)
	}
}

// TestRunInstanceAgreementProtocols spot-checks single fdba/sm instances
// across the fault families, including the bespoke equivocating senders.
func TestRunInstanceAgreementProtocols(t *testing.T) {
	for _, tc := range []struct {
		name          string
		inst          Instance
		wantDiscovery bool
	}{
		{"fdba honest",
			Instance{Protocol: ProtoFDBA, N: 5, T: 1, Scheme: sig.SchemeToy, Adversary: AdvNone, Seed: 1}, false},
		{"fdba crash-relay falls back and agrees",
			Instance{Protocol: ProtoFDBA, N: 6, T: 2, Scheme: sig.SchemeToy, Adversary: AdvCrashRelay, Seed: 1}, true},
		{"fdba equivocating sender",
			Instance{Protocol: ProtoFDBA, N: 6, T: 2, Scheme: sig.SchemeToy, Adversary: AdvEquivocate, Seed: 1}, true},
		{"sm honest",
			Instance{Protocol: ProtoSM, N: 5, T: 1, Scheme: sig.SchemeToy, Adversary: AdvNone, Seed: 1}, false},
		{"sm crash-sender agrees on default",
			Instance{Protocol: ProtoSM, N: 5, T: 1, Scheme: sig.SchemeToy, Adversary: AdvCrashSender, Seed: 1}, false},
		{"sm equivocating sender agrees on default",
			Instance{Protocol: ProtoSM, N: 5, T: 2, Scheme: sig.SchemeToy, Adversary: AdvEquivocate, Seed: 1}, false},
	} {
		res := RunInstance(tc.inst)
		if res.Err != "" {
			t.Errorf("%s: error: %s", tc.name, res.Err)
			continue
		}
		if !res.Agreed {
			t.Errorf("%s: did not agree: %+v", tc.name, res)
		}
		if res.Discovered != tc.wantDiscovery {
			t.Errorf("%s: discovered=%v, want %v", tc.name, res.Discovered, tc.wantDiscovery)
		}
		if !res.Conformance.Conformant() {
			t.Errorf("%s: verdict %+v", tc.name, res.Conformance)
		}
		if res.Conformance.MayDisagree {
			t.Errorf("%s: agreement protocol was excused", tc.name)
		}
	}
}

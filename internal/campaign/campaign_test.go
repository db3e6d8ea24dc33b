package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/protocol"
	"repro/internal/sig"
)

// toySpec returns a sweep sized for tests: ≥ 100 instances across two
// protocols under the fast toy scheme. The adversaries span the legacy
// aliases, the compact strategy syntax, and the structured AdversarySpecs
// block — a seeded coalition with delayed delivery among them — so the
// differential tests cover the whole resolution surface.
func toySpec() Spec {
	return Spec{
		Name:      "test-sweep",
		Protocols: []string{ProtoChain, ProtoNonAuth},
		Sizes:     []int{4, 6},
		Schemes:   []string{sig.SchemeToy},
		Adversaries: []string{
			AdvNone,
			AdvCrashRelay,
			"coalition:size=1,behavior=delay,delay=2",
		},
		AdversarySpecs: []adversary.Strategy{
			{Nodes: []int{1}, Behaviors: []adversary.BehaviorSpec{
				{Name: adversary.BehaviorDuplicate, Victims: []int{0}},
				{Name: adversary.BehaviorTamper},
			}},
		},
		SeedBase:  7,
		SeedCount: 13,
	}
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"valid", toySpec(), true},
		{"no protocols", Spec{Sizes: []int{4}}, false},
		{"unknown protocol", Spec{Protocols: []string{"quantum"}, Sizes: []int{4}}, false},
		{"no sizes or cases", Spec{Protocols: []string{ProtoChain}}, false},
		{"unknown adversary", Spec{Protocols: []string{ProtoChain}, Sizes: []int{4}, Adversaries: []string{"gremlin"}}, false},
		{"unknown scheme", Spec{Protocols: []string{ProtoChain}, Sizes: []int{4}, Schemes: []string{"rot13"}}, false},
		{"tiny size", Spec{Protocols: []string{ProtoChain}, Sizes: []int{1}}, false},
		{"explicit cases", Spec{Protocols: []string{ProtoChain}, Cases: []Case{{N: 5, T: 1}}}, true},
	} {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
}

func TestParseSpecAdversarySpecsJSON(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"name": "json-strategies",
		"protocols": ["chain"],
		"sizes": [7],
		"adversaries": ["none", "coalition:size=1,behavior=delay,delay=2"],
		"adversary_specs": [
			{"coalition": 2, "behaviors": [{"behavior": "equivocate", "partition": "even-odd"}]},
			{"name": "flood", "nodes": [1], "behaviors": [{"behavior": "duplicate", "victims": [0, 2]}]}
		],
		"seed_count": 2
	}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	insts, err := Expand(s)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	names := map[string]bool{}
	for _, inst := range insts {
		names[inst.Adversary] = true
	}
	for _, want := range []string{"none", "coalition-1.delay-2", "coalition-2.equivocate-even-odd", "flood"} {
		if !names[want] {
			t.Errorf("expanded adversaries %v missing %q", names, want)
		}
	}
	// Malformed structured specs fail loudly.
	if _, err := ParseSpec([]byte(`{
		"protocols": ["chain"], "sizes": [6],
		"adversary_specs": [{"coalition": 2, "behaviors": [{"behavior": "warp"}]}]
	}`)); err == nil {
		t.Error("unknown behavior in adversary_specs accepted")
	}
	// Duplicate resolved names collide.
	if _, err := ParseSpec([]byte(`{
		"protocols": ["chain"], "sizes": [6],
		"adversaries": ["crash-relay"],
		"adversary_specs": [{"name": "crash-relay", "nodes": [2], "behaviors": [{"behavior": "crash"}]}]
	}`)); err == nil {
		t.Error("duplicate adversary names accepted")
	}
}

func TestSplitAdversaryList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"none,crash-relay", []string{"none", "crash-relay"}},
		{"coalition:size=2,behavior=equivocate", []string{"coalition:size=2,behavior=equivocate"}},
		{"none;coalition:size=2,behavior=equivocate; relay:behavior=tamper",
			[]string{"none", "coalition:size=2,behavior=equivocate", "relay:behavior=tamper"}},
	} {
		if got := SplitAdversaryList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitAdversaryList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x","protocols":["chain"],"sizes":[4],"worker_count":8}`)); err == nil {
		t.Error("ParseSpec accepted an unknown field; typos must fail loudly")
	}
	s, err := ParseSpec([]byte(`{"name":"x","protocols":["chain"],"sizes":[4],"seed_count":2}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if s.SeedCount != 2 || s.Name != "x" {
		t.Errorf("ParseSpec = %+v", s)
	}
}

func TestExpandDeterministicAndComplete(t *testing.T) {
	spec := toySpec()
	a, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	b, _ := Expand(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same spec differ")
	}
	// 2 protocols × 2 sizes × 1 scheme × 4 adversaries × 13 seeds.
	if want := 2 * 2 * 4 * 13; len(a) != want {
		t.Fatalf("expanded %d instances, want %d", len(a), want)
	}
	protos := map[string]int{}
	for i, inst := range a {
		if inst.Index != i {
			t.Fatalf("instance %d has Index %d", i, inst.Index)
		}
		protos[inst.Protocol]++
	}
	if len(protos) != 2 {
		t.Errorf("protocols covered = %v, want 2", protos)
	}
	// nonauth is unsigned: its instances must not carry a scheme.
	for _, inst := range a {
		if inst.Protocol == ProtoNonAuth && inst.Scheme != "" {
			t.Fatalf("nonauth instance carries scheme %q", inst.Scheme)
		}
	}
}

func TestExpandSkipRules(t *testing.T) {
	// eig needs n > 3t: at n=4, only t=1 survives from {1, 2}.
	insts, err := Expand(Spec{
		Protocols: []string{ProtoEIG},
		Sizes:     []int{4},
		Tols:      []int{1, 2},
		SeedBase:  1,
		SeedCount: 1,
	})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(insts) != 1 || insts[0].T != 1 {
		t.Errorf("eig skip rule failed: %+v", insts)
	}
	// equivocate is unsupported for smallrange and vector.
	insts, err = Expand(Spec{
		Protocols:   []string{ProtoSmallRange, ProtoVector, ProtoChain},
		Cases:       []Case{{N: 5, T: 1}},
		Adversaries: []string{AdvEquivocate},
		SeedCount:   1,
	})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(insts) != 1 || insts[0].Protocol != ProtoChain {
		t.Errorf("equivocate skip rule failed: %+v", insts)
	}
	// An all-skipped spec errors rather than silently succeeding.
	if _, err := Expand(Spec{
		Protocols:   []string{ProtoSmallRange},
		Cases:       []Case{{N: 4, T: 1}},
		Adversaries: []string{AdvEquivocate},
		SeedCount:   1,
	}); err == nil {
		t.Error("zero-instance expansion did not error")
	}
}

func TestRunInstanceDeterministic(t *testing.T) {
	inst := Instance{Index: 3, Protocol: ProtoChain, N: 5, T: 1, Scheme: sig.SchemeToy, Adversary: AdvNone, Seed: 42}
	a := RunInstance(inst)
	b := RunInstance(inst)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical instances produced different results:\n%+v\n%+v", a, b)
	}
	if a.Err != "" {
		t.Fatalf("honest chain instance failed: %s", a.Err)
	}
	if !a.Agreed || a.Discovered {
		t.Errorf("honest chain run: agreed=%v discovered=%v", a.Agreed, a.Discovered)
	}
	if a.Messages != 4 {
		t.Errorf("chain messages = %d, want n-1 = 4", a.Messages)
	}
}

func TestRunInstanceAdversaries(t *testing.T) {
	for _, tc := range []struct {
		name          string
		inst          Instance
		wantAgreed    bool
		wantDiscovery bool
	}{
		{"chain crash-relay",
			Instance{Protocol: ProtoChain, N: 5, T: 1, Scheme: sig.SchemeToy, Adversary: AdvCrashRelay, Seed: 1},
			false, true},
		{"chain equivocate",
			Instance{Protocol: ProtoChain, N: 6, T: 2, Scheme: sig.SchemeToy, Adversary: AdvEquivocate, Seed: 1},
			false, true},
		{"nonauth crash-sender",
			Instance{Protocol: ProtoNonAuth, N: 5, T: 1, Adversary: AdvCrashSender, Seed: 1},
			false, true},
		{"smallrange honest",
			Instance{Protocol: ProtoSmallRange, N: 5, T: 1, Scheme: sig.SchemeToy, Adversary: AdvNone, Seed: 1},
			true, false},
		{"vector honest",
			Instance{Protocol: ProtoVector, N: 4, T: 1, Scheme: sig.SchemeToy, Adversary: AdvNone, Seed: 1},
			true, false},
		// A crashed relay breaks every rotated instance that routes
		// through it: correct nodes discover (not decide) there, so the
		// strict all-decided agreement flag drops.
		{"vector crash-relay",
			Instance{Protocol: ProtoVector, N: 4, T: 1, Scheme: sig.SchemeToy, Adversary: AdvCrashRelay, Seed: 1},
			false, true},
		{"eig honest",
			Instance{Protocol: ProtoEIG, N: 4, T: 1, Adversary: AdvNone, Seed: 1},
			true, false},
		{"eig equivocate agrees anyway (n > 3t)",
			Instance{Protocol: ProtoEIG, N: 7, T: 2, Adversary: AdvEquivocate, Seed: 1},
			true, false},
	} {
		res := RunInstance(tc.inst)
		if res.Err != "" {
			t.Errorf("%s: error: %s", tc.name, res.Err)
			continue
		}
		if res.Agreed != tc.wantAgreed || res.Discovered != tc.wantDiscovery {
			t.Errorf("%s: agreed=%v discovered=%v, want %v/%v",
				tc.name, res.Agreed, res.Discovered, tc.wantAgreed, tc.wantDiscovery)
		}
	}
}

func TestRunInstanceReportsErrors(t *testing.T) {
	res := RunInstance(Instance{Protocol: ProtoChain, N: 5, T: 1, Scheme: "no-such-scheme", Seed: 1})
	if res.Err == "" {
		t.Error("bad scheme did not surface in Result.Err")
	}
	res = RunInstance(Instance{Protocol: "bogus", N: 5, T: 1, Seed: 1})
	if res.Err == "" {
		t.Error("bogus protocol did not surface in Result.Err")
	}
}

// fullGridSpec widens toySpec to every registered protocol driver: the
// campaign grid the invariance contract runs over. Deriving the protocol
// list from the registry is itself part of the contract — a driver
// registered without joining the invariance grid cannot exist.
func fullGridSpec() Spec {
	s := toySpec()
	s.Name = "full-grid-sweep"
	s.Protocols = protocol.Names()
	return s
}

// TestReportWorkerCountInvariance is the campaign determinism contract:
// the canonical JSON of a several-hundred-instance sweep across the full
// seven-protocol registry grid must be byte-identical for 1 worker and 8
// workers.
func TestReportWorkerCountInvariance(t *testing.T) {
	spec := fullGridSpec()
	if len(spec.Protocols) != 7 {
		t.Fatalf("registry has %d drivers, the invariance grid expects 7: %v",
			len(spec.Protocols), spec.Protocols)
	}
	insts, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(insts) < 100 {
		t.Fatalf("differential spec has %d instances; the contract test needs >= 100", len(insts))
	}
	// Registry completeness: every registered driver must appear in the
	// expanded grid — no driver can dodge the invariance contract.
	covered := map[string]int{}
	for _, inst := range insts {
		covered[inst.Protocol]++
	}
	for _, name := range protocol.Names() {
		if covered[name] == 0 {
			t.Errorf("registered driver %q expanded to zero instances in the invariance grid", name)
		}
	}
	rep1, err := Run(spec, 1)
	if err != nil {
		t.Fatalf("Run(workers=1): %v", err)
	}
	rep8, err := Run(spec, 8)
	if err != nil {
		t.Fatalf("Run(workers=8): %v", err)
	}
	j1, err := rep1.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	j8, err := rep8.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	if !bytes.Equal(j1, j8) {
		t.Fatal("aggregate JSON differs between 1 and 8 workers; the campaign lost its determinism guarantee")
	}
	// The report must actually contain aggregates, not vacuous output:
	// 7 protocols × 2 sizes × 4 adversaries.
	if len(rep1.Groups) != 56 {
		t.Errorf("got %d groups, want 56", len(rep1.Groups))
	}
	for _, g := range rep1.Groups {
		if g.Errors != 0 {
			t.Errorf("group %s: %d errored instances", g.Key, g.Errors)
		}
		if g.Adversary == AdvNone && g.AgreeRate != 1 {
			t.Errorf("group %s: honest agree rate %v, want 1", g.Key, g.AgreeRate)
		}
		if g.Protocol == ProtoChain && g.Adversary == AdvNone && g.Messages.Mean != float64(g.N-1) {
			t.Errorf("group %s: mean messages %v, want n-1", g.Key, g.Messages.Mean)
		}
		// The conformance section must be populated and clean: the whole
		// grid — aliases, strategy syntax, and structured specs alike —
		// is a passed property test.
		if g.Conformant != g.Instances || len(g.Violations) != 0 {
			t.Errorf("group %s: %d/%d conformant, violations %v",
				g.Key, g.Conformant, g.Instances, g.Violations)
		}
	}
	if rep1.Violations() != 0 {
		t.Errorf("report records %d violations", rep1.Violations())
	}
}

func TestReportJSONRoundTrips(t *testing.T) {
	rep, err := Run(Spec{
		Protocols: []string{ProtoChain},
		Cases:     []Case{{N: 4, T: 1}},
		Schemes:   []string{sig.SchemeToy},
		SeedBase:  3,
		SeedCount: 2,
	}, 2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.Schema != ReportSchema || back.Instances != 2 || len(back.Results) != 2 {
		t.Errorf("round-trip lost data: %+v", back)
	}
	tbl := rep.Table().String()
	if !strings.Contains(tbl, "chain") {
		t.Errorf("table missing protocol column:\n%s", tbl)
	}
}

// TestReportSetupCacheInvariance is the amortization determinism
// contract: a sweep that reuses cached key material and established
// clusters must emit a report byte-identical to the same Local walk with
// no store, where every instance regenerates its setup — across every
// cluster-backed protocol, both deterministic signature schemes, and
// every adversary mix. It runs the cached side at two worker counts so
// which worker builds a cell, and under which instance's run seed, is
// also shown not to matter. The second spec is the grid `fdcampaign
// -protocols chain,smallrange,vector,fdba,sm -sizes 4,6 -schemes
// toy,ed25519 -seeds 4 -workers 2` sweeps with every other flag at its
// default.
func TestReportSetupCacheInvariance(t *testing.T) {
	specs := []Spec{{
		Name:        "setup-cache-differential",
		Protocols:   []string{ProtoChain, ProtoSmallRange, ProtoVector, ProtoFDBA, ProtoSM},
		Sizes:       []int{4, 6},
		Schemes:     []string{sig.SchemeToy, sig.SchemeEd25519},
		Adversaries: []string{AdvNone, AdvCrashRelay, AdvEquivocate},
		SeedBase:    11,
		SeedCount:   4,
	}, {
		Name:        "fdcampaign",
		Protocols:   []string{ProtoChain, ProtoSmallRange, ProtoVector, ProtoFDBA, ProtoSM},
		Sizes:       []int{4, 6},
		Schemes:     []string{sig.SchemeToy, sig.SchemeEd25519},
		Adversaries: []string{AdvNone, AdvCrashRelay},
		SeedBase:    19950530,
		SeedCount:   4,
	}}
	for _, spec := range specs {
		fresh, err := RunWith(spec, onStore{2, nil})
		if err != nil {
			t.Fatalf("%s: Run(uncached): %v", spec.Name, err)
		}
		jFresh, err := fresh.CanonicalJSON()
		if err != nil {
			t.Fatalf("CanonicalJSON: %v", err)
		}
		for _, workers := range []int{1, 3} {
			cached, err := Run(spec, workers)
			if err != nil {
				t.Fatalf("%s: Run(cached, workers=%d): %v", spec.Name, workers, err)
			}
			jCached, err := cached.CanonicalJSON()
			if err != nil {
				t.Fatalf("CanonicalJSON: %v", err)
			}
			if !bytes.Equal(jFresh, jCached) {
				t.Fatalf("%s: cached (workers=%d) and uncached reports differ; setup reuse changed what the campaign measured", spec.Name, workers)
			}
		}
		for _, g := range fresh.Groups {
			if g.Errors != 0 {
				t.Errorf("%s: group %s: %d errored instances", spec.Name, g.Key, g.Errors)
			}
		}
	}
}

// TestReportSetupCacheInvarianceUnderEviction forces the sweep's store
// down to one cell, so every cell change evicts and rebuilds — with two
// workers, out from under a cell the other is still using or still
// building: the report must still match the fully cached one.
func TestReportSetupCacheInvarianceUnderEviction(t *testing.T) {
	spec := Spec{
		Name:      "eviction-differential",
		Protocols: []string{ProtoChain, ProtoVector},
		Sizes:     []int{4, 5},
		Schemes:   []string{sig.SchemeToy},
		SeedBase:  23,
		SeedCount: 3,
	}
	roomy, err := Run(spec, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	jRoomy, _ := roomy.CanonicalJSON()
	for _, workers := range []int{1, 2} {
		tight, err := RunWith(spec, onStore{workers, protocol.NewSetupCache(1)})
		if err != nil {
			t.Fatalf("Run(cap=1, workers=%d): %v", workers, err)
		}
		jTight, _ := tight.CanonicalJSON()
		if !bytes.Equal(jRoomy, jTight) {
			t.Fatalf("cache eviction changed the report (workers=%d)", workers)
		}
	}
}

// TestInstanceKeySeedPinsKeyMaterial runs the same instance under two run
// seeds and checks the traffic profile is identical (keys shared), then
// under two key seeds and checks both still succeed — the fresh-keys
// escape hatch.
func TestInstanceKeySeedPinsKeyMaterial(t *testing.T) {
	base := Instance{Protocol: ProtoChain, N: 5, T: 1, Scheme: sig.SchemeToy, Adversary: AdvNone, Seed: 1, KeySeed: 9}
	other := base
	other.Seed = 2
	a, b := RunInstance(base), RunInstance(other)
	if a.Err != "" || b.Err != "" {
		t.Fatalf("instance errors: %q / %q", a.Err, b.Err)
	}
	if a.Messages != b.Messages || a.Bytes != b.Bytes || !a.Agreed || !b.Agreed {
		t.Errorf("run seed changed the traffic profile: %+v vs %+v", a, b)
	}
	rekeyed := base
	rekeyed.KeySeed = 10
	c := RunInstance(rekeyed)
	if c.Err != "" || !c.Agreed {
		t.Errorf("rekeyed instance failed: %+v", c)
	}
}

// TestGoldenReportByteIdentical is the registry-redesign differential:
// testdata/golden_report.json was generated by the pre-registry code
// (hard-coded switch dispatch) over the five original protocols, and the
// registry-backed engine must reproduce it byte for byte. Worker count
// is arbitrary by the invariance contract; two counts are exercised so a
// regression cannot hide behind scheduling.
func TestGoldenReportByteIdentical(t *testing.T) {
	assertGoldenReport(t, "testdata/golden_spec.json", "testdata/golden_report.json")
}

// TestGoldenWiringReportByteIdentical is the one-wiring-loop
// differential: testdata/golden_wiring_report.json was written by the
// fdcampaign built at 1896a55, when the cluster drivers, vector and eig
// each had their own per-node fault loop, over what golden_spec.json
// leaves out — all seven drivers (fdba and sm included) × a partitioned
// equivocating coalition and a delay+tamper stack × churn, seeded
// latency/loss and a healing partition.
func TestGoldenWiringReportByteIdentical(t *testing.T) {
	assertGoldenReport(t, "testdata/golden_wiring_spec.json", "testdata/golden_wiring_report.json")
}

// Every instance Expand returns passes Instance.Validate, the check the
// agreement service admits requests by — the golden wiring grid's
// adversaries and network conditions included — and so does the same
// instance after a JSON round trip, the form a served request takes.
func TestExpandedInstancesValidate(t *testing.T) {
	for _, path := range []string{"testdata/golden_spec.json", "testdata/golden_wiring_spec.json"} {
		spec, err := LoadSpec(path)
		if err != nil {
			t.Fatalf("LoadSpec: %v", err)
		}
		instances, err := Expand(spec)
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		for _, inst := range instances {
			if err := inst.Validate(); err != nil {
				t.Fatalf("%s: instance %d (%s): %v", path, inst.Index, inst.GroupKey(), err)
			}
			data, err := json.Marshal(inst)
			if err != nil {
				t.Fatal(err)
			}
			var wire Instance
			if err := json.Unmarshal(data, &wire); err != nil {
				t.Fatal(err)
			}
			if err := wire.Validate(); err != nil {
				t.Fatalf("%s: instance %d (%s) after a JSON round trip: %v", path, inst.Index, inst.GroupKey(), err)
			}
		}
	}
}

// assertGoldenReport runs the spec at 1 and 4 workers and requires the
// canonical report to equal the committed one byte for byte.
func assertGoldenReport(t *testing.T, specPath, reportPath string) {
	t.Helper()
	spec, err := LoadSpec(specPath)
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	want, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("read golden report: %v", err)
	}
	for _, workers := range []int{1, 4} {
		rep, err := Run(spec, workers)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		got, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("CanonicalJSON: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("report of %s (workers=%d) differs from %s", specPath, workers, reportPath)
		}
	}
}

// TestECDSAReportsReproduce: two identical campaigns under ecdsa-p256
// write byte-identical reports. ECDSA's nonce is random, so only a
// fixed-width signature keeps the bytes on the wire, and the report's
// byte columns, the same.
func TestECDSAReportsReproduce(t *testing.T) {
	spec := Spec{
		Name:        "ecdsa",
		Protocols:   []string{ProtoChain, ProtoSM},
		Sizes:       []int{4, 6},
		Schemes:     []string{sig.SchemeECDSA},
		Adversaries: []string{AdvNone, AdvCrashRelay},
		SeedBase:    11,
		SeedCount:   3,
	}
	var reports [2][]byte
	for i := range reports {
		rep, err := Run(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if reports[i], err = rep.CanonicalJSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("two identical ecdsa-p256 campaigns wrote different reports")
	}
}

package protocol

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/sig"
	"repro/internal/sim"
)

// TestRegistryCompleteness pins the built-in driver set: the seven
// protocol names, each resolvable, each reporting its own name.
func TestRegistryCompleteness(t *testing.T) {
	want := []string{NameChain, NameEIG, NameFDBA, NameNonAuth, NameSM, NameSmallRange, NameVector}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		drv, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if drv.Name() != name {
			t.Errorf("driver registered under %q reports Name %q", name, drv.Name())
		}
	}
	if got, want := len(Drivers()), len(want); got != want {
		t.Errorf("Drivers() returned %d drivers, want %d", got, want)
	}
}

// TestLookupErrorEnumeratesRegistry: a typo'd name must tell the user
// what IS registered instead of failing opaquely.
func TestLookupErrorEnumeratesRegistry(t *testing.T) {
	_, err := Lookup("quantum")
	if err == nil {
		t.Fatal("Lookup accepted an unregistered name")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("lookup error %q does not enumerate %q", err, name)
		}
	}
}

// TestDeclaredCapabilities pins each built-in driver's declared axes —
// in particular UsesSignatures, which is also the setup declaration: eig
// and nonauth hold no keys, so they do not declare it and RunInstance
// runs them over a bare cluster.
func TestDeclaredCapabilities(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Capabilities
	}{
		{NameChain, Capabilities{UsesSignatures: true, SupportsEquivocate: true}},
		{NameNonAuth, Capabilities{SupportsEquivocate: true}},
		{NameSmallRange, Capabilities{UsesSignatures: true}},
		{NameVector, Capabilities{UsesSignatures: true}},
		{NameEIG, Capabilities{SupportsEquivocate: true, RequiresSupermajority: true, MaxN: 256}},
		{NameFDBA, Capabilities{UsesSignatures: true, SupportsEquivocate: true}},
		{NameSM, Capabilities{UsesSignatures: true, SupportsEquivocate: true}},
	} {
		drv, err := Lookup(tc.name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", tc.name, err)
		}
		if got := drv.Capabilities(); got != tc.want {
			t.Errorf("%s: Capabilities = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestUncacheableDriversNeverTouchTheCache: RunInstance must enforce an
// unsigned driver's skip — an eig or nonauth run offered a store makes no
// lookup in it and leaves it empty.
func TestUncacheableDriversNeverTouchTheCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst Instance
	}{
		{NameEIG, Instance{N: 4, T: 1, Seed: 1}},
		{NameNonAuth, Instance{N: 4, T: 1, Seed: 1}},
	} {
		drv, err := Lookup(tc.name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", tc.name, err)
		}
		if drv.Capabilities().UsesSignatures {
			t.Fatalf("%s declares it signs; this test pins the opposite", tc.name)
		}
		cache := NewSetupCache(4)
		seen := "untouched"
		tc.inst.SetupServed = &seen
		out, err := RunInstance(drv, tc.inst, cache)
		if err != nil {
			t.Fatalf("%s: RunInstance: %v", tc.name, err)
		}
		if hits, misses := cache.Stats(); cache.Len() != 0 || hits+misses != 0 || seen != "untouched" {
			t.Errorf("%s: unsigned driver touched the store (%d cells, %d hits, %d misses, lookup %v)",
				tc.name, cache.Len(), hits, misses, seen)
		}
		if !out.Agreed {
			t.Errorf("%s: honest run did not agree", tc.name)
		}
	}
}

// TestCacheableDriversShareClusterCells: every driver that runs over
// established authentication reads the cell of its (scheme, n, keySeed)
// coordinates — not one per driver, not one per family, and whatever the
// fault bound — so a grid revisiting a cell pays a single handshake
// across chain, smallrange, fdba, sm and vector.
func TestCacheableDriversShareClusterCells(t *testing.T) {
	cache := NewSetupCache(4)
	inst := Instance{N: 5, T: 1, Scheme: sig.SchemeToy, Seed: 3, KeySeed: 9}
	names := []string{NameChain, NameSmallRange, NameFDBA, NameSM, NameVector}
	for i, name := range names {
		drv, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		inst.T = 1 + i%2
		inst.Seed++
		out, err := RunInstance(drv, inst, cache)
		if err != nil {
			t.Fatalf("%s: RunInstance: %v", name, err)
		}
		fresh, err := RunInstance(drv, inst, nil)
		if err != nil {
			t.Fatalf("%s: RunInstance(fresh): %v", name, err)
		}
		if !reflect.DeepEqual(out, fresh) {
			t.Errorf("%s: run over the shared cell differs from a fresh build:\n got %+v\nwant %+v", name, out, fresh)
		}
	}
	hits, misses := cache.Stats()
	if cache.Len() != 1 || misses != 1 || hits != len(names)-1 {
		t.Errorf("five drivers: %d cells, %d handshakes, %d hits; want 1 shared cell, 1, %d",
			cache.Len(), misses, hits, len(names)-1)
	}
}

// TestSetupCacheBounded pins the eviction mechanics through the public
// lookup: first in, first out, and a hit does not renew a cell's lease.
func TestSetupCacheBounded(t *testing.T) {
	sc := NewSetupCache(2)
	lookup := func(n int) string {
		t.Helper()
		var seen string
		nodes, err := sc.Established(Instance{N: n, T: 1, Scheme: sig.SchemeToy, Seed: 1, KeySeed: 1, SetupServed: &seen})
		if err != nil || len(nodes) != n {
			t.Fatalf("Established(n=%d): %d nodes, %v", n, len(nodes), err)
		}
		return seen
	}
	for _, step := range []struct {
		n    int
		want string
	}{
		{4, "miss"}, {5, "miss"},
		{6, "miss"}, // evicts n=4
		{5, "hit"}, {6, "hit"},
		{7, "miss"}, // evicts n=5, the oldest, though it was just read
		{6, "hit"},
		{5, "miss"}, // evicts n=6
		{7, "hit"},
		{4, "miss"},
	} {
		if got := lookup(step.n); got != step.want {
			t.Fatalf("lookup n=%d was a %v, want %v", step.n, got, step.want)
		}
		if sc.Len() > 2 {
			t.Fatalf("store holds %d cells, cap is 2", sc.Len())
		}
	}
	if hits, misses := sc.Stats(); hits != 4 || misses != 6 {
		t.Errorf("Stats() = %d hits, %d misses; want 4, 6", hits, misses)
	}
}

// TestCapabilitiesSupports drives the generic expansion rules.
func TestCapabilitiesSupports(t *testing.T) {
	equivocate := adversary.Strategy{
		Nodes:     []int{0},
		Behaviors: []adversary.BehaviorSpec{{Name: adversary.BehaviorEquivocate}},
	}
	crashRelay := adversary.Strategy{
		Nodes:     []int{1},
		Behaviors: []adversary.BehaviorSpec{{Name: adversary.BehaviorCrash}},
	}
	honest := adversary.Strategy{}
	eig := Capabilities{RequiresSupermajority: true, MaxN: 256, SupportsEquivocate: true}
	plain := Capabilities{SupportsEquivocate: true}
	noEquiv := Capabilities{}
	resign := adversary.Strategy{Nodes: []int{1}, Behaviors: []adversary.BehaviorSpec{{Name: adversary.BehaviorResign}}}
	wrongName := adversary.Strategy{Nodes: []int{1}, Behaviors: []adversary.BehaviorSpec{{Name: adversary.BehaviorWrongName}}}
	setup := adversary.Strategy{Nodes: []int{0}, Setup: adversary.SetupEquivocateKeys}
	caps := func(name string) Capabilities {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return d.Capabilities()
	}
	for _, tc := range []struct {
		name  string
		caps  Capabilities
		n, t  int
		strat adversary.Strategy
		want  bool
	}{
		{"honest ok", plain, 4, 1, honest, true},
		{"invalid config", plain, 1, 0, honest, false},
		{"supermajority holds", eig, 7, 2, honest, true},
		{"supermajority violated", eig, 6, 2, honest, false},
		{"maxN exceeded", eig, 300, 1, honest, false},
		{"adversary needs t>=1", plain, 4, 0, crashRelay, false},
		{"corrupt size beyond t", plain, 6, 1, adversary.Strategy{Coalition: 2,
			Behaviors: []adversary.BehaviorSpec{{Name: adversary.BehaviorCrash}}}, false},
		{"non-sender corruption needs n>=3", plain, 2, 1, crashRelay, false},
		{"equivocate supported", plain, 5, 1, equivocate, true},
		{"equivocate unsupported", noEquiv, 5, 1, equivocate, false},
		{"chain resigns", caps(NameChain), 7, 2, resign, true},
		{"chain names wrong", caps(NameChain), 7, 2, wrongName, true},
		{"nonauth holds no keys to resign", caps(NameNonAuth), 7, 2, resign, false},
		{"nonauth holds no keys to name wrong", caps(NameNonAuth), 7, 2, wrongName, false},
		{"eig holds no keys to resign", caps(NameEIG), 7, 2, resign, false},
		{"eig holds no keys to name wrong", caps(NameEIG), 7, 2, wrongName, false},
		{"chain runs a corrupt setup", caps(NameChain), 7, 2, setup, true},
		{"sm runs a corrupt setup", caps(NameSM), 4, 1, setup, true},
		{"nonauth has no setup to corrupt", caps(NameNonAuth), 7, 2, setup, false},
		{"eig has no setup to corrupt", caps(NameEIG), 7, 2, setup, false},
	} {
		if got := tc.caps.Supports(tc.n, tc.t, tc.strat); got != tc.want {
			t.Errorf("%s: Supports(n=%d, t=%d) = %v, want %v", tc.name, tc.n, tc.t, got, tc.want)
		}
	}
}

// TestSetupAttacksUseTheKeysNodesHold: under every scheme, a key that
// SetupOptions derives for another node (a claim's victim, shared-key's
// lowest corrupt node) is the key that node drew, and an equivocate-keys
// node shows its lower half the key it keeps and signs with later.
func TestSetupAttacksUseTheKeysNodesHold(t *testing.T) {
	for _, name := range sig.Names() {
		if name == sig.SchemeRSA && testing.Short() {
			continue // RSA key generation is slow
		}
		scheme, err := sig.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst := Instance{N: 4, T: 1, Scheme: name, Seed: 49, KeySeed: 49}
		honest, err := establish(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, node := range honest {
			derived, err := scheme.Generate(core.KeyRand(inst.KeySeed, i))
			if err != nil {
				t.Fatal(err)
			}
			if derived.Predicate().Fingerprint() != node.Signer().Predicate().Fingerprint() {
				t.Errorf("%s: P%d holds a key other than its key seed derives", name, i)
			}
		}
		inst.Strategy = adversary.Strategy{Nodes: []int{0}, Setup: adversary.SetupEquivocateKeys}
		nodes, err := establish(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kept := nodes[0].Signer().Predicate().Fingerprint()
		one, _ := nodes[1].Directory().PredicateOf(0)
		two, _ := nodes[2].Directory().PredicateOf(0)
		if one == nil || two == nil || one.Fingerprint() != kept || two.Fingerprint() == kept {
			t.Errorf("%s: P1 and P2 accepted %v and %v for P0, want P0's kept key and another", name, one, two)
		}
	}
}

// TestVerdictProfiles pins the canned conformance readings: which
// configurations may disagree, and whether a discovery exempts a run.
func TestVerdictProfiles(t *testing.T) {
	keys := adversary.SetupEquivocateKeys
	for _, tc := range []struct {
		name    string
		p       VerdictProfile
		n, t    int
		setup   string
		may     bool
		exempts bool
	}{
		{"authenticated FD", VerdictsAuthenticatedFD, 4, 2, "", false, true},
		{"authenticated FD under two keys", VerdictsAuthenticatedFD, 4, 1, keys, false, true},
		{"unauthenticated FD at n <= 3t", VerdictsUnauthenticatedFD, 6, 2, "", true, true},
		{"unauthenticated FD at n > 3t", VerdictsUnauthenticatedFD, 7, 2, "", false, true},
		{"silence default", VerdictsSilenceDefault, 100, 1, "", true, true},
		{"agreement", VerdictsAgreement, 4, 2, "", false, false},
		{"agreement under a foreign claim", VerdictsAgreement, 4, 1, adversary.SetupForeignClaim, false, false},
		{"agreement under two keys (§6)", VerdictsAgreement, 4, 1, keys, true, false},
	} {
		if got := tc.p.MayDisagree(tc.n, tc.t, tc.setup); got != tc.may {
			t.Errorf("%s: MayDisagree(n=%d, t=%d, %q) = %v, want %v", tc.name, tc.n, tc.t, tc.setup, got, tc.may)
		}
		if got := tc.p.DiscoveryExempts(); got != tc.exempts {
			t.Errorf("%s: DiscoveryExempts() = %v, want %v", tc.name, got, tc.exempts)
		}
	}
}

// TestRegisterRejectsDuplicates: double registration is a programming
// error the process must not limp past.
func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	d, err := Lookup(NameEIG)
	if err != nil {
		t.Fatal(err)
	}
	Register(d)
}

// TestRunNodesWiresStrategyAndChurn: a driver that brings nothing but a
// node builder gets the instance's whole fault model from RunNodes — the
// honest processes come back with nil exactly at inst.Faulty(), a
// pure-crash node is never built, and a churned one is built twice.
func TestRunNodesWiresStrategyAndChurn(t *testing.T) {
	net, err := netcond.Parse("churn=3@2-3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		adversary string
		builds    int // of n = 7: corrupt node 1 and churned node 3
	}{
		{"nodes=1:behavior=crash", 7},         // silent: 1 never built, 3 twice
		{"nodes=1:behavior=delay,delay=1", 8}, // wrapped: 1 built once, 3 twice
		{"nodes=1:behavior=crash,round=2", 8}, // a later crash is a wrapped node
		{"nodes=1:behavior=tamper,behavior=drop,victims=2", 8},
	} {
		strat, err := adversary.ParseStrategy(tc.adversary)
		if err != nil {
			t.Fatal(err)
		}
		inst := Instance{N: 7, T: 2, Strategy: strat, Seed: 5, Net: &net}
		c, err := ClusterSetup(inst, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		builds := 0
		rep, honest, err := RunNodes(inst, c, "test-idle", 4, func(model.NodeID) (sim.Process, error) {
			builds++
			return sim.Silent{}, nil
		})
		if err != nil {
			t.Fatalf("%s: RunNodes: %v", tc.adversary, err)
		}
		if builds != tc.builds {
			t.Errorf("%s: builder ran %d times, want %d", tc.adversary, builds, tc.builds)
		}
		faulty := inst.Faulty()
		if !reflect.DeepEqual(faulty, model.NewNodeSet(1, 3)) {
			t.Fatalf("%s: faulty set %v, want {1, 3}", tc.adversary, faulty.Sorted())
		}
		for i, p := range honest {
			if (p == nil) != faulty.Contains(model.NodeID(i)) {
				t.Errorf("%s: honest[%d] = %v with faulty set %v", tc.adversary, i, p, faulty.Sorted())
			}
		}
		if rep.Rounds < 1 || rep.Rounds > 4 {
			t.Errorf("%s: ran %d rounds under a bound of 4", tc.adversary, rep.Rounds)
		}
	}
}

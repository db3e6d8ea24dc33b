package adversary

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
		want  Strategy
		ok    bool
	}{
		{"sender crash", "sender:behavior=crash",
			Strategy{Nodes: []int{0}, Behaviors: []BehaviorSpec{{Name: BehaviorCrash}}}, true},
		{"relay delay", "relay:behavior=delay,delay=2",
			Strategy{Nodes: []int{1}, Behaviors: []BehaviorSpec{{Name: BehaviorDelay, Delay: 2}}}, true},
		{"fixed nodes drop", "nodes=1+3:behavior=drop,victims=2+4",
			Strategy{Nodes: []int{1, 3}, Behaviors: []BehaviorSpec{{Name: BehaviorDrop, Victims: []int{2, 4}}}}, true},
		{"coalition equivocate", "coalition:size=2,behavior=equivocate,partition=even-odd",
			Strategy{Coalition: 2, Behaviors: []BehaviorSpec{{Name: BehaviorEquivocate, Partition: PartitionEvenOdd}}}, true},
		{"coalition defaults to size 1", "coalition:behavior=tamper",
			Strategy{Coalition: 1, Behaviors: []BehaviorSpec{{Name: BehaviorTamper}}}, true},
		{"composed behaviors", "coalition:size=2,behavior=delay,delay=1,behavior=drop,victims=3",
			Strategy{Coalition: 2, Behaviors: []BehaviorSpec{
				{Name: BehaviorDelay, Delay: 1},
				{Name: BehaviorDrop, Victims: []int{3}},
			}}, true},
		{"named", "sender:name=my-fault,behavior=crash,round=2",
			Strategy{Name: "my-fault", Nodes: []int{0}, Behaviors: []BehaviorSpec{{Name: BehaviorCrash, Round: 2}}}, true},
		{"duplicate flood", "nodes=2:behavior=duplicate,victims=0+1",
			Strategy{Nodes: []int{2}, Behaviors: []BehaviorSpec{{Name: BehaviorDuplicate, Victims: []int{0, 1}}}}, true},
		{"resign relay", "relay:behavior=resign",
			Strategy{Nodes: []int{1}, Behaviors: []BehaviorSpec{{Name: BehaviorResign}}}, true},
		{"resigning pair", "nodes=0+2:behavior=resign",
			Strategy{Nodes: []int{0, 2}, Behaviors: []BehaviorSpec{{Name: BehaviorResign}}}, true},
		{"wrong-name relay", "relay:behavior=wrong-name",
			Strategy{Nodes: []int{1}, Behaviors: []BehaviorSpec{{Name: BehaviorWrongName}}}, true},
		{"setup only", "nodes=5:setup=foreign-claim", Strategy{Nodes: []int{5}, Setup: SetupForeignClaim}, true},
		{"setup then behavior", "relay:setup=relay-challenge,behavior=resign",
			Strategy{Nodes: []int{1}, Behaviors: []BehaviorSpec{{Name: BehaviorResign}}, Setup: SetupRelayChallenge}, true},
		{"setup shared by a pair", "nodes=4+5:setup=shared-key", Strategy{Nodes: []int{4, 5}, Setup: SetupSharedKey}, true},

		{"unknown selector", "gremlin:behavior=crash", Strategy{}, false},
		{"unknown behavior", "sender:behavior=teleport", Strategy{}, false},
		{"no behaviors", "sender", Strategy{}, false},
		{"bad size", "coalition:size=zero,behavior=crash", Strategy{}, false},
		{"zero size", "coalition:size=0,behavior=crash", Strategy{}, false},
		{"negative round", "sender:behavior=crash,round=-1", Strategy{}, false},
		{"round out of range", "sender:behavior=crash,round=70000", Strategy{}, false},
		{"delay missing", "sender:behavior=delay", Strategy{}, false},
		{"delay out of range", "sender:behavior=delay,delay=500", Strategy{}, false},
		{"drop without victims", "sender:behavior=drop", Strategy{}, false},
		{"negative victim", "sender:behavior=drop,victims=-2", Strategy{}, false},
		{"stray delay on crash", "sender:behavior=crash,delay=2", Strategy{}, false},
		{"stray partition on drop", "sender:behavior=drop,victims=1,partition=halves", Strategy{}, false},
		{"unknown partition", "sender:behavior=equivocate,partition=thirds", Strategy{}, false},
		{"param before behavior", "sender:round=2,behavior=crash", Strategy{}, false},
		{"size outside coalition", "sender:size=2,behavior=crash", Strategy{}, false},
		{"malformed param", "sender:behavior", Strategy{}, false},
		{"empty value", "sender:behavior=", Strategy{}, false},
		{"bad node list", "nodes=1+x:behavior=crash", Strategy{}, false},
		{"duplicate node id", "nodes=1+1:behavior=crash", Strategy{}, false},
		{"unknown parameter", "sender:behavior=crash,color=red", Strategy{}, false},
		{"stray round on resign", "relay:behavior=resign,round=2", Strategy{}, false},
		{"stray victims on wrong-name", "relay:behavior=wrong-name,victims=3", Strategy{}, false},
		{"unknown setup", "sender:setup=forge-keys", Strategy{}, false},
		{"setup over a coalition", "coalition:size=2,setup=equivocate-keys", Strategy{}, false},
		{"setup over a coalition with behaviors", "coalition:behavior=crash,setup=silent", Strategy{}, false},
	} {
		got, err := ParseStrategy(tc.input)
		if tc.ok && err != nil {
			t.Errorf("%s: ParseStrategy(%q) = %v, want ok", tc.name, tc.input, err)
			continue
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: ParseStrategy(%q) accepted invalid input: %+v", tc.name, tc.input, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ParseStrategy(%q) =\n%+v, want\n%+v", tc.name, tc.input, got, tc.want)
		}
	}
}

func TestStrategyValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Strategy
		ok   bool
	}{
		{"honest zero value", Strategy{}, true},
		{"honest named", Strategy{Name: "control"}, true},
		{"fixed crash", Strategy{Nodes: []int{1}, Behaviors: []BehaviorSpec{{Name: BehaviorCrash}}}, true},
		{"nodes and coalition", Strategy{Nodes: []int{1}, Coalition: 2,
			Behaviors: []BehaviorSpec{{Name: BehaviorCrash}}}, false},
		{"negative coalition", Strategy{Coalition: -1}, false},
		{"behaviors without corrupt set", Strategy{Behaviors: []BehaviorSpec{{Name: BehaviorCrash}}}, false},
		{"corrupt set without behaviors", Strategy{Nodes: []int{1}}, false},
		{"negative node", Strategy{Nodes: []int{-1}, Behaviors: []BehaviorSpec{{Name: BehaviorCrash}}}, false},
		{"empty behavior name", Strategy{Nodes: []int{1}, Behaviors: []BehaviorSpec{{}}}, false},
		{"setup alone", Strategy{Nodes: []int{0}, Setup: SetupEquivocateKeys}, true},
		{"setup without corrupt set", Strategy{Setup: SetupSilent}, false},
		{"setup over a coalition", Strategy{Coalition: 1, Setup: SetupSilent}, false},
		{"unknown setup", Strategy{Nodes: []int{0}, Setup: "teleport"}, false},
	} {
		err := tc.s.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate accepted an invalid strategy", tc.name)
		}
	}
}

// TestCorruptSetDeterminism pins the coalition contract: same seed, same
// set; the sweep across seeds explores different placements; every set
// has exactly the declared size with valid members.
func TestCorruptSetDeterminism(t *testing.T) {
	s := Strategy{Coalition: 2, Behaviors: []BehaviorSpec{{Name: BehaviorCrash}}}
	const n = 8
	for seed := int64(0); seed < 20; seed++ {
		a, b := s.CorruptSet(n, seed), s.CorruptSet(n, seed)
		if !reflect.DeepEqual(a.Sorted(), b.Sorted()) {
			t.Fatalf("seed %d: two resolutions differ: %v vs %v", seed, a, b)
		}
		if len(a) != 2 {
			t.Fatalf("seed %d: coalition size %d, want 2", seed, len(a))
		}
		for _, id := range a.Sorted() {
			if !id.Valid(n) {
				t.Fatalf("seed %d: invalid member %v", seed, id)
			}
		}
	}
	// Different seeds must explore different coalitions (not all equal).
	distinct := make(map[string]bool)
	for seed := int64(0); seed < 20; seed++ {
		distinct[s.CorruptSet(n, seed).String()] = true
	}
	if len(distinct) < 2 {
		t.Errorf("20 seeds produced %d distinct coalitions; selection is not seed-driven", len(distinct))
	}
	// Fixed sets resolve verbatim, independent of the seed.
	f := Strategy{Nodes: []int{3, 1}, Behaviors: []BehaviorSpec{{Name: BehaviorCrash}}}
	for seed := int64(0); seed < 5; seed++ {
		got := f.CorruptSet(n, seed).Sorted()
		if len(got) != 2 || got[0] != 1 || got[1] != 3 {
			t.Fatalf("fixed set resolved to %v", got)
		}
	}
	// Oversized coalitions clamp to n.
	big := Strategy{Coalition: 99, Behaviors: []BehaviorSpec{{Name: BehaviorCrash}}}
	if got := len(big.CorruptSet(4, 1)); got != 4 {
		t.Errorf("oversized coalition resolved to %d members, want 4", got)
	}
}

// TestPartitionsDisjointAndCovering checks both equivocation partitions:
// face one and its complement are disjoint and cover all n nodes, for a
// range of system sizes.
func TestPartitionsDisjointAndCovering(t *testing.T) {
	for _, partition := range []string{PartitionHalves, PartitionEvenOdd, ""} {
		for n := 2; n <= 9; n++ {
			faceOne, err := PartitionFaceOne(partition, n)
			if err != nil {
				t.Fatalf("PartitionFaceOne(%q, %d): %v", partition, n, err)
			}
			// Membership is binary, so the two faces are disjoint by
			// construction; coverage means every member is in range and
			// the complement over [0, n) accounts for the rest.
			faceTwo := 0
			for id := 0; id < n; id++ {
				if !faceOne.Contains(model.NodeID(id)) {
					faceTwo++
				}
			}
			for _, id := range faceOne.Sorted() {
				if !id.Valid(n) {
					t.Fatalf("partition %q n=%d: face one contains out-of-range node %v", partition, n, id)
				}
			}
			if len(faceOne)+faceTwo != n {
				t.Fatalf("partition %q n=%d: faces cover %d of %d nodes", partition, n, len(faceOne)+faceTwo, n)
			}
			if len(faceOne) == 0 || faceTwo == 0 {
				t.Errorf("partition %q n=%d: face one has %d of %d nodes; both faces must be non-empty",
					partition, n, len(faceOne), n)
			}
		}
	}
	if _, err := PartitionFaceOne("thirds", 6); err == nil {
		t.Error("unknown partition accepted")
	}
}

// TestBuildBehaviorsCompositionOrder pins that behaviors apply in spec
// order: delay-then-drop suppresses the released messages, while
// drop-then-delay releases the survivors.
func TestBuildBehaviorsCompositionOrder(t *testing.T) {
	send := func() sim.Process {
		return sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
			if round != 1 {
				return nil
			}
			return []model.Message{{To: 1, Payload: []byte("a")}, {To: 2, Payload: []byte("b")}}
		})
	}
	delaySpec := BehaviorSpec{Name: BehaviorDelay, Delay: 1}
	dropSpec := BehaviorSpec{Name: BehaviorDrop, Victims: []int{2}}

	// delay → drop: round 1 emits nothing, round 2 releases both messages
	// through the drop, which suppresses the one to node 2.
	bs, err := BuildBehaviors([]BehaviorSpec{delaySpec, dropSpec}, 4, nil)
	if err != nil {
		t.Fatalf("BuildBehaviors: %v", err)
	}
	p := WrapBehaviors(send(), bs...)
	if got := p.Step(1, nil); len(got) != 0 {
		t.Fatalf("delay→drop round 1 = %v, want empty", got)
	}
	got := p.Step(2, nil)
	if len(got) != 1 || got[0].To != 1 {
		t.Fatalf("delay→drop round 2 = %v, want only To:1", got)
	}

	// drop → delay: identical end state, but the drop already happened in
	// round 1, so only one message was ever held.
	bs, err = BuildBehaviors([]BehaviorSpec{dropSpec, delaySpec}, 4, nil)
	if err != nil {
		t.Fatalf("BuildBehaviors: %v", err)
	}
	p = WrapBehaviors(send(), bs...)
	if got := p.Step(1, nil); len(got) != 0 {
		t.Fatalf("drop→delay round 1 = %v, want empty", got)
	}
	got = p.Step(2, nil)
	if len(got) != 1 || got[0].To != 1 {
		t.Fatalf("drop→delay round 2 = %v, want only To:1", got)
	}
}

// TestDelayBoundRespected pins the Delayer timing: a message from round r
// is released in round r+delay, never earlier, never later, and Holding
// reflects the buffered state throughout.
func TestDelayBoundRespected(t *testing.T) {
	for delay := 1; delay <= 3; delay++ {
		d := DelayBy(delay)
		out := d.Apply(1, nil, []model.Message{{To: 1, Payload: []byte("x")}})
		if len(out) != 0 {
			t.Fatalf("delay=%d: released in the send round", delay)
		}
		if !d.Holding() {
			t.Fatalf("delay=%d: not holding after buffering", delay)
		}
		for r := 2; r < 1+delay; r++ {
			if out := d.Apply(r, nil, nil); len(out) != 0 {
				t.Fatalf("delay=%d: released early in round %d", delay, r)
			}
		}
		out = d.Apply(1+delay, nil, nil)
		if len(out) != 1 || out[0].To != 1 {
			t.Fatalf("delay=%d: round %d released %v, want the held message", delay, 1+delay, out)
		}
		if d.Holding() {
			t.Fatalf("delay=%d: still holding after release", delay)
		}
	}
}

// TestDuplicateFloodOneCopyPerVictim pins the duplicate semantics: each
// victim receives exactly one copy of every ORIGINAL message — stacked
// victims never re-copy earlier victims' duplicates.
func TestDuplicateFloodOneCopyPerVictim(t *testing.T) {
	bs, err := BuildBehaviors([]BehaviorSpec{{Name: BehaviorDuplicate, Victims: []int{4, 5, 6}}}, 8, nil)
	if err != nil {
		t.Fatalf("BuildBehaviors: %v", err)
	}
	out := []model.Message{{To: 1, Payload: []byte("a")}, {To: 2, Payload: []byte("b")}}
	for _, b := range bs {
		out = b.Apply(1, nil, out)
	}
	// 2 originals + 3 victims × 2 copies.
	if len(out) != 8 {
		t.Fatalf("flood produced %d messages, want 8: %v", len(out), out)
	}
	perVictim := map[model.NodeID]int{}
	for _, m := range out[2:] {
		perVictim[m.To]++
	}
	for _, v := range []model.NodeID{4, 5, 6} {
		if perVictim[v] != 2 {
			t.Errorf("victim %v received %d copies, want 2", v, perVictim[v])
		}
	}
}

// TestBuildBehaviorsRejectsInvalid mirrors validation at build time.
func TestBuildBehaviorsRejectsInvalid(t *testing.T) {
	for _, specs := range [][]BehaviorSpec{
		{{Name: "teleport"}},
		{{Name: BehaviorDelay}},
		{{Name: BehaviorDrop}},
		{{Name: BehaviorEquivocate, Partition: "thirds"}},
		{{Name: BehaviorCrash, Round: -3}},
		{{Name: BehaviorResign}},    // keyed, without keys
		{{Name: BehaviorWrongName}}, // keyed, without keys
	} {
		if _, err := BuildBehaviors(specs, 4, nil); err == nil {
			t.Errorf("BuildBehaviors(%+v) accepted invalid spec", specs)
		}
	}
}

func TestCanonicalName(t *testing.T) {
	for _, tc := range []struct {
		s    Strategy
		want string
	}{
		{Strategy{}, "none"},
		{Strategy{Name: "custom", Nodes: []int{1}, Behaviors: []BehaviorSpec{{Name: BehaviorCrash}}}, "custom"},
		{Strategy{Nodes: []int{2, 0}, Behaviors: []BehaviorSpec{{Name: BehaviorCrash}}}, "nodes-0-2.crash"},
		{Strategy{Nodes: []int{0}, Behaviors: []BehaviorSpec{{Name: BehaviorCrash, Round: 3}}}, "nodes-0.crash-r3"},
		{Strategy{Coalition: 2, Behaviors: []BehaviorSpec{
			{Name: BehaviorEquivocate, Partition: PartitionEvenOdd}}}, "coalition-2.equivocate-even-odd"},
		{Strategy{Coalition: 1, Behaviors: []BehaviorSpec{
			{Name: BehaviorDelay, Delay: 2},
			{Name: BehaviorDrop, Victims: []int{3, 1}},
		}}, "coalition-1.delay-2.drop-v1-v3"},
		{Strategy{Nodes: []int{1}, Behaviors: []BehaviorSpec{{Name: BehaviorEquivocate}}}, "nodes-1.equivocate"},
		{Strategy{Nodes: []int{1}, Behaviors: []BehaviorSpec{{Name: BehaviorResign}}}, "nodes-1.resign"},
		{Strategy{Nodes: []int{2, 0}, Behaviors: []BehaviorSpec{{Name: BehaviorResign}}}, "nodes-0-2.resign"},
		{Strategy{Nodes: []int{1}, Behaviors: []BehaviorSpec{{Name: BehaviorWrongName}}}, "nodes-1.wrong-name"},
		{Strategy{Nodes: []int{5}, Setup: SetupForeignClaim}, "nodes-5.setup-foreign-claim"},
		{Strategy{Nodes: []int{1}, Behaviors: []BehaviorSpec{{Name: BehaviorResign}}, Setup: SetupForeignClaim},
			"nodes-1.resign.setup-foreign-claim"},
	} {
		if got := tc.s.CanonicalName(); got != tc.want {
			t.Errorf("CanonicalName(%+v) = %q, want %q", tc.s, got, tc.want)
		}
		// Names must be CSV-safe: the campaign table renders them.
		if strings.ContainsAny(tc.s.CanonicalName(), ",;\n") {
			t.Errorf("CanonicalName(%+v) contains separator characters", tc.s)
		}
	}
}

// FuzzParseStrategy: malformed sizes, unknown behaviors, out-of-range
// rounds — everything must return an error, never panic, and accepted
// inputs must survive their own validation.
func FuzzParseStrategy(f *testing.F) {
	for _, seed := range []string{
		"sender:behavior=crash",
		"relay:behavior=delay,delay=2",
		"nodes=1+3:behavior=drop,victims=2+4",
		"coalition:size=2,behavior=equivocate,partition=even-odd",
		"coalition:size=2,behavior=delay,delay=1,behavior=drop,victims=3",
		"sender:name=x,behavior=tamper",
		"relay:behavior=resign",
		"coalition:size=2,behavior=resign,behavior=delay,delay=1",
		"nodes=1:behavior=wrong-name,behavior=tamper",
		"relay:behavior=resign,round=2",
		"nodes=5:setup=foreign-claim",
		"nodes=1+2:setup=shared-key,behavior=delay,delay=1",
		"coalition:size=2,setup=equivocate-keys",
		"sender:setup=",
		"coalition:size=-1,behavior=crash",
		"sender:behavior=crash,round=999999",
		"sender:behavior=warp",
		"nodes=:behavior=crash",
		"nodes=1+1+1:behavior=crash",
		":::",
		"coalition:size=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseStrategy(input)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("ParseStrategy(%q) accepted a strategy its own Validate rejects: %v", input, verr)
		}
		// Building behaviors and resolving corrupt sets on accepted
		// strategies must not panic either.
		keyed := func(BehaviorSpec) (Behavior, error) { return DropAll(1), nil }
		if _, berr := BuildBehaviors(s.Behaviors, 8, keyed); berr != nil {
			t.Fatalf("ParseStrategy(%q) accepted behaviors BuildBehaviors rejects: %v", input, berr)
		}
		s.CorruptSet(8, 42)
		_ = s.CanonicalName()
	})
}

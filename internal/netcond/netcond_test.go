package netcond

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

func TestParseRoundTrips(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"", Spec{}},
		{"ideal", Spec{}},
		{"  ideal  ", Spec{}},
		{"latency=fixed-2", Spec{Latency: &LatencySpec{Dist: DistFixed, Rounds: 2}}},
		{"latency=uniform-0-3", Spec{Latency: &LatencySpec{Dist: DistUniform, Min: 0, Max: 3}}},
		{"latency=lognormal-0.5-0.3", Spec{Latency: &LatencySpec{Dist: DistLognormal, Mu: 0.5, Sigma: 0.3}}},
		{"latency=lognormal-0.5-0.3-6", Spec{Latency: &LatencySpec{Dist: DistLognormal, Mu: 0.5, Sigma: 0.3, Cap: 6}}},
		{"loss=0.05", Spec{Loss: 0.05}},
		{"reorder=0.1,bandwidth=4", Spec{Reorder: 0.1, Bandwidth: 4}},
		{"partition=even-odd@1-3", Spec{Partitions: []PartitionSpec{{Split: SplitEvenOdd, From: 1, Heal: 3}}}},
		{"partition=halves@2", Spec{Partitions: []PartitionSpec{{Split: SplitHalves, From: 2}}}},
		{"partition=halves@2,partition=even-odd@4-6", Spec{Partitions: []PartitionSpec{
			{Split: SplitHalves, From: 2}, {Split: SplitEvenOdd, From: 4, Heal: 6}}}},
		{"churn=2@2-4", Spec{Churn: []ChurnSpec{{Node: 2, Crash: 2, Restart: 4}}}},
		{"churn=1@3", Spec{Churn: []ChurnSpec{{Node: 1, Crash: 3}}}},
		{"name=lab,loss=0.2", Spec{Name: "lab", Loss: 0.2}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got.Name != c.want.Name || got.Loss != c.want.Loss || got.Reorder != c.want.Reorder ||
			got.Bandwidth != c.want.Bandwidth {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if (got.Latency == nil) != (c.want.Latency == nil) ||
			(got.Latency != nil && *got.Latency != *c.want.Latency) {
			t.Errorf("Parse(%q) latency = %+v, want %+v", c.in, got.Latency, c.want.Latency)
		}
		if len(got.Partitions) != len(c.want.Partitions) {
			t.Errorf("Parse(%q) partitions = %+v", c.in, got.Partitions)
		} else {
			for i := range got.Partitions {
				if got.Partitions[i] != c.want.Partitions[i] {
					t.Errorf("Parse(%q) partition %d = %+v, want %+v", c.in, i, got.Partitions[i], c.want.Partitions[i])
				}
			}
		}
		if len(got.Churn) != len(c.want.Churn) {
			t.Errorf("Parse(%q) churn = %+v", c.in, got.Churn)
		} else {
			for i := range got.Churn {
				if got.Churn[i] != c.want.Churn[i] {
					t.Errorf("Parse(%q) churn %d = %+v, want %+v", c.in, i, got.Churn[i], c.want.Churn[i])
				}
			}
		}
	}
}

func TestParseRejectsMalformedInput(t *testing.T) {
	cases := []struct {
		in      string
		wantSub string
	}{
		{"latency", "malformed field"},
		{"latency=", "malformed field"},
		{"loss=0.1,loss=0.2", "duplicate key"},
		{"speed=9", "unknown key"},
		{"latency=gaussian-1", "unknown distribution"},
		{"latency=fixed-", "bad latency value"},
		{"latency=fixed-1-2", "want fixed-<rounds>"},
		{"latency=uniform-3", "want uniform-<min>-<max>"},
		{"loss=NaN", "out of range [0, 1]"},
		{"loss=1.5", "out of range [0, 1]"},
		{"reorder=-0.1", "out of range [0, 1]"},
		{"bandwidth=x", "bad bandwidth value"},
		{"partition=even-odd", "want <split>@<from>"},
		{"partition=ring@1", "unknown partition split"},
		{"partition=halves@3-2", "heal-round"},
		{"churn=2", "want <node>@<crash>"},
		{"churn=2@0", "crash-round"},
		{"churn=2@2-1", "restart-round"},
		{"churn=2@2,churn=2@5", "duplicate churn entry"},
		{"name=has space", "separator characters"},
		{"name=" + strings.Repeat("x", 65), "longer than 64 bytes"},
	}
	for _, c := range cases {
		if _, err := Parse(c.in); err == nil {
			t.Errorf("Parse(%q) accepted, want error containing %q", c.in, c.wantSub)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.in, err, c.wantSub)
		}
	}
}

func TestValidateBounds(t *testing.T) {
	bad := []Spec{
		{Loss: math.NaN()},
		{Loss: math.Inf(1)},
		{Reorder: 2},
		{Bandwidth: -1},
		{Bandwidth: MaxBandwidth + 1},
		{Latency: &LatencySpec{Dist: DistFixed, Rounds: 0}},
		{Latency: &LatencySpec{Dist: DistFixed, Rounds: MaxLatencyRounds + 1}},
		{Latency: &LatencySpec{Dist: DistUniform, Min: 2, Max: 1}},
		{Latency: &LatencySpec{Dist: DistUniform, Min: -1, Max: 1}},
		{Latency: &LatencySpec{Dist: DistLognormal, Mu: math.NaN()}},
		{Latency: &LatencySpec{Dist: DistLognormal, Sigma: -1}},
		{Latency: &LatencySpec{Dist: DistLognormal, Cap: -1}},
		{Latency: &LatencySpec{Dist: "weird"}},
		{Partitions: []PartitionSpec{{Split: "diag", From: 1}}},
		{Partitions: []PartitionSpec{{Split: SplitHalves, From: 0}}},
		{Partitions: []PartitionSpec{{Split: SplitHalves, From: 1, Heal: 1}}},
		{Partitions: []PartitionSpec{{Split: SplitHalves, From: 1, Heal: MaxScriptRound + 1}}},
		{Churn: []ChurnSpec{{Node: -1, Crash: 1}}},
		{Churn: []ChurnSpec{{Node: 0, Crash: 0}}},
		{Churn: []ChurnSpec{{Node: 0, Crash: 5, Restart: 3}}},
		{Name: "a,b"},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted, want error", s)
		}
	}
	good := []Spec{
		{},
		{Loss: 1, Reorder: 1, Bandwidth: MaxBandwidth},
		{Latency: &LatencySpec{Dist: DistFixed, Rounds: MaxLatencyRounds}},
		{Latency: &LatencySpec{Dist: DistUniform, Min: 0, Max: 0}},
		{Latency: &LatencySpec{Dist: DistLognormal, Mu: -16, Sigma: 16, Cap: MaxLatencyRounds}},
		{Partitions: []PartitionSpec{{Split: SplitEvenOdd, From: 1}}},
		{Churn: []ChurnSpec{{Node: 0, Crash: 1}, {Node: 1, Crash: 1, Restart: 2}}},
		{Name: "lab-A_1"},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v, want ok", s, err)
		}
	}
}

func TestCanonicalName(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{}, "ideal"},
		{Spec{Name: "lab"}, "lab"},
		{Spec{Latency: &LatencySpec{Dist: DistFixed, Rounds: 1}}, "lat-fixed-1"},
		{Spec{Latency: &LatencySpec{Dist: DistUniform, Min: 0, Max: 2}}, "lat-uniform-0-2"},
		{Spec{Latency: &LatencySpec{Dist: DistLognormal, Mu: 0.5, Sigma: 0.3}}, "lat-lognormal-0.5-0.3"},
		{Spec{Loss: 0.05}, "loss-0.05"},
		{Spec{Reorder: 0.1, Bandwidth: 4}, "reorder-0.1.bw-4"},
		{Spec{Partitions: []PartitionSpec{{Split: SplitEvenOdd, From: 1, Heal: 3}}}, "part-even-odd-r1-h3"},
		{Spec{Partitions: []PartitionSpec{{Split: SplitHalves, From: 2}}}, "part-halves-r2"},
		{Spec{Churn: []ChurnSpec{{Node: 2, Crash: 2, Restart: 4}}}, "churn-2-r2-r4"},
		{Spec{Churn: []ChurnSpec{{Node: 1, Crash: 3}}}, "churn-1-r3"},
		{Spec{Latency: &LatencySpec{Dist: DistFixed, Rounds: 1}, Loss: 0.1,
			Churn: []ChurnSpec{{Node: 2, Crash: 2, Restart: 4}}}, "lat-fixed-1.loss-0.1.churn-2-r2-r4"},
	}
	for _, c := range cases {
		if got := c.spec.CanonicalName(); got != c.want {
			t.Errorf("CanonicalName(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestSpecPredicates(t *testing.T) {
	if !(Spec{}).IsIdeal() || (Spec{}).DegradesLinks() {
		t.Error("zero spec must be ideal and non-degrading")
	}
	if !(Spec{Name: "lab"}).IsIdeal() {
		t.Error("a name alone must not break ideality")
	}
	churnOnly := Spec{Churn: []ChurnSpec{{Node: 3, Crash: 2}, {Node: 1, Crash: 1}, {Node: 3, Crash: 2}}}
	if churnOnly.IsIdeal() {
		t.Error("churn spec reported ideal")
	}
	if churnOnly.DegradesLinks() {
		t.Error("churn alone must not count as link degradation (conformance scores it in full)")
	}
	nodes := churnOnly.ChurnNodes()
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 3 {
		t.Errorf("ChurnNodes = %v, want sorted deduped [1 3]", nodes)
	}
	degrading := []Spec{
		{Latency: &LatencySpec{Dist: DistFixed, Rounds: 1}},
		{Loss: 0.1},
		{Reorder: 0.1},
		{Bandwidth: 1},
		{Partitions: []PartitionSpec{{Split: SplitHalves, From: 1}}},
	}
	for _, s := range degrading {
		if !s.DegradesLinks() || s.IsIdeal() {
			t.Errorf("spec %+v must degrade links and not be ideal", s)
		}
	}
}

// msgSeq generates a deterministic all-pairs message sequence for fate
// comparisons.
func msgSeq(n, rounds int) []struct {
	m model.Message
	r int
} {
	var out []struct {
		m model.Message
		r int
	}
	for r := 1; r <= rounds; r++ {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				out = append(out, struct {
					m model.Message
					r int
				}{model.Message{From: model.NodeID(from), To: model.NodeID(to), Kind: model.KindPlainValue}, r})
			}
		}
	}
	return out
}

func TestModelFatesAreDeterministic(t *testing.T) {
	spec := Spec{
		Latency: &LatencySpec{Dist: DistUniform, Min: 0, Max: 3},
		Loss:    0.2,
		Reorder: 0.2,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	a := NewModel(spec, 4, 7)
	b := NewModel(spec, 4, 7)
	seq := msgSeq(4, 6)
	diverse := map[int]bool{}
	for i, s := range seq {
		fa, fb := a.Fate(s.m, s.r), b.Fate(s.m, s.r)
		if fa != fb {
			t.Fatalf("fate %d diverged: %d vs %d (same spec, same seed)", i, fa, fb)
		}
		diverse[fa] = true
	}
	if len(diverse) < 2 {
		t.Errorf("fates never varied (%v) — RNG plumbing suspect", diverse)
	}
	// A different run seed must yield a different fate sequence.
	c := NewModel(spec, 4, 8)
	same := true
	for _, s := range seq {
		if c.Fate(s.m, s.r) != b.Fate(s.m, s.r) {
			same = false
			break
		}
	}
	if same {
		t.Error("fate sequence identical across different seeds")
	}
}

// TestModelSenderLocalStreams checks the property the transport mirror
// relies on: a model that only ever serves one sender's messages
// computes the same fates for them as a model serving everyone's,
// because fates draw only from the sender's own directed link streams.
func TestModelSenderLocalStreams(t *testing.T) {
	spec := Spec{Latency: &LatencySpec{Dist: DistUniform, Min: 0, Max: 2}, Loss: 0.3}
	global := NewModel(spec, 4, 11)
	private := NewModel(spec, 4, 11)
	seq := msgSeq(4, 4)
	for _, s := range seq {
		f := global.Fate(s.m, s.r)
		if s.m.From == 2 {
			if pf := private.Fate(s.m, s.r); pf != f {
				t.Fatalf("sender-2 fate diverged between global and private model: %d vs %d", pf, f)
			}
		}
	}
}

func TestModelPartitionHoldAndHeal(t *testing.T) {
	spec := Spec{Partitions: []PartitionSpec{{Split: SplitEvenOdd, From: 1, Heal: 3}}}
	m := NewModel(spec, 4, 1)
	cross := model.Message{From: 0, To: 1, Kind: model.KindPlainValue}
	sameSideMsg := model.Message{From: 0, To: 2, Kind: model.KindPlainValue}
	// Round 1: crossing messages held until delivery in the heal round.
	if d := m.Fate(cross, 1); d != 1 {
		t.Errorf("round-1 crossing fate = %d, want 1 (delivered at heal round 3)", d)
	}
	if d := m.Fate(sameSideMsg, 1); d != 0 {
		t.Errorf("same-side fate = %d, want 0", d)
	}
	// Round 2: one less round to hold.
	if d := m.Fate(cross, 2); d != 0 {
		t.Errorf("round-2 crossing fate = %d, want 0 (heal-1 == send round)", d)
	}
	// Round 3 onward: healed, ideal again.
	if d := m.Fate(cross, 3); d != 0 {
		t.Errorf("post-heal fate = %d, want 0", d)
	}
}

func TestModelPartitionNeverHealsDrops(t *testing.T) {
	spec := Spec{Partitions: []PartitionSpec{{Split: SplitHalves, From: 2}}}
	m := NewModel(spec, 4, 1)
	cross := model.Message{From: 0, To: 3, Kind: model.KindPlainValue}
	if d := m.Fate(cross, 1); d != 0 {
		t.Errorf("pre-partition fate = %d, want 0", d)
	}
	if d := m.Fate(cross, 2); d != sim.Drop {
		t.Errorf("partitioned fate = %d, want Drop", d)
	}
	if d := m.Fate(cross, 100); d != sim.Drop {
		t.Errorf("a heal-less partition must stay cut forever, fate = %d", d)
	}
}

func TestModelBandwidthWindow(t *testing.T) {
	spec := Spec{Bandwidth: 2}
	m := NewModel(spec, 4, 1)
	msg := model.Message{From: 0, To: 1, Kind: model.KindPlainValue}
	want := []int{0, 0, 1, 1, 2}
	for i, w := range want {
		if d := m.Fate(msg, 1); d != w {
			t.Errorf("message %d on a cap-2 link: fate %d, want %d", i+1, d, w)
		}
	}
	// New round, fresh window.
	if d := m.Fate(msg, 2); d != 0 {
		t.Errorf("fresh-round fate = %d, want 0", d)
	}
	// Other links have their own windows.
	if d := m.Fate(model.Message{From: 0, To: 2}, 2); d != 0 {
		t.Errorf("independent link inherited a used window: fate %d", d)
	}
}

// scriptProc is a minimal process for Churner tests: it records the
// rounds it was stepped in and echoes a single message per step.
type scriptProc struct {
	stepped  []int
	finished bool
}

func (p *scriptProc) Step(round int, _ []model.Message) []model.Message {
	p.stepped = append(p.stepped, round)
	return []model.Message{{To: 0, Kind: model.KindPlainValue}}
}

func (p *scriptProc) Finished() bool { return p.finished }

func TestChurnerCrashAndRestart(t *testing.T) {
	orig := &scriptProc{finished: true}
	rebuilt := &scriptProc{finished: true}
	var rebuilds int
	ch := NewChurner(orig, ChurnSpec{Node: 2, Crash: 2, Restart: 4}, func() (sim.Process, error) {
		rebuilds++
		return rebuilt, nil
	})

	if out := ch.Step(1, nil); len(out) != 1 {
		t.Errorf("round 1 (up): sent %d messages, want 1", len(out))
	}
	if ch.Finished() {
		t.Error("Finished before the scheduled restart — engine would exit early")
	}
	for r := 2; r <= 3; r++ {
		if out := ch.Step(r, []model.Message{{From: 1}}); out != nil {
			t.Errorf("round %d (down): sent %v, want nothing", r, out)
		}
	}
	if out := ch.Step(4, nil); len(out) != 1 {
		t.Errorf("round 4 (restarted): sent %d messages, want 1", len(out))
	}
	if rebuilds != 1 {
		t.Errorf("rebuild ran %d times, want exactly once", rebuilds)
	}
	if len(orig.stepped) != 1 || orig.stepped[0] != 1 {
		t.Errorf("original process stepped in rounds %v, want [1]", orig.stepped)
	}
	if len(rebuilt.stepped) != 1 || rebuilt.stepped[0] != 4 {
		t.Errorf("rebuilt process stepped in rounds %v, want [4]", rebuilt.stepped)
	}
	if !ch.Finished() {
		t.Error("restarted churner must delegate Finished to the rebuilt process")
	}
	// Further steps keep using the rebuilt process; rebuild stays one-shot.
	ch.Step(5, nil)
	if rebuilds != 1 {
		t.Errorf("rebuild re-ran: %d times", rebuilds)
	}
}

func TestChurnerPermanentCrash(t *testing.T) {
	orig := &scriptProc{finished: true}
	ch := NewChurner(orig, ChurnSpec{Node: 1, Crash: 2}, nil)
	if out := ch.Step(1, nil); len(out) != 1 {
		t.Error("pre-crash step suppressed")
	}
	for r := 2; r <= 6; r++ {
		if out := ch.Step(r, nil); out != nil {
			t.Errorf("round %d after permanent crash: sent %v", r, out)
		}
	}
	if !ch.Finished() {
		t.Error("a permanent crash with a finished inner process must report finished")
	}
}

func TestChurnerRebuildFailureStaysDown(t *testing.T) {
	orig := &scriptProc{}
	ch := NewChurner(orig, ChurnSpec{Node: 0, Crash: 1, Restart: 2}, func() (sim.Process, error) {
		return nil, errors.New("durable state corrupted")
	})
	if out := ch.Step(1, nil); out != nil {
		t.Errorf("crash round sent %v", out)
	}
	if out := ch.Step(2, nil); out != nil {
		t.Errorf("failed restart sent %v", out)
	}
	if !ch.Finished() {
		t.Error("a dead node must report finished so the run can end")
	}
}

func TestSameSide(t *testing.T) {
	if !sameSide(SplitEvenOdd, 4, 0, 2) || sameSide(SplitEvenOdd, 4, 0, 1) {
		t.Error("even-odd split misclassifies")
	}
	if !sameSide(SplitHalves, 4, 0, 1) || sameSide(SplitHalves, 4, 1, 2) {
		t.Error("halves split misclassifies")
	}
	if !sameSide("unknown", 4, 0, 1) {
		t.Error("unknown split must behave as no cut")
	}
}

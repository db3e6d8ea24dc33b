package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the program's
// own metric and workload tables equal, and inside the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Command) == 0 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("command %v, run_seconds %d", spec.Command, spec.RunSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		t.Helper()
		if !metricName.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program (or their why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits of 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if first := spec.EndToEnd[0]; first.Name != "setup_s" || first.Unit != "s" || first.Better != "lower" {
		t.Errorf("setup_s must be present with unit s and better lower, got %+v", first)
	}
}

// TestQuickRun runs every workload in both modes at smoke size and checks
// that every metric BENCHMARK.json names comes out, with its unit.
func TestQuickRun(t *testing.T) {
	out := t.TempDir()
	ok, err := run(options{workload: "all", seed: defaultSeed, seconds: 4, trace: "both", out: out, quick: true, runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("quick run reported incorrect outputs")
	}
	file, err := readResults(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 2*len(workloads) {
		t.Fatalf("results.json holds %d runs, want %d", len(file.Runs), 2*len(workloads))
	}
	if file.GoVersion == "" || file.GOMAXPROCS < 1 || file.NProc < 1 {
		t.Errorf("results.json does not record the environment: %+v", file)
	}
	for _, rec := range file.Runs {
		defs := endToEnd
		if rec.Trace == 1 {
			defs = perLayer
		}
		if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 || rec.Ops < 1 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d ops=%d", rec.Workload, rec.Trace, rec.Correct, rec.Attempted, rec.Failed, rec.Ops)
		}
		if len(rec.Metrics) != len(defs) {
			t.Errorf("%s trace=%d: %d metrics, want %d", rec.Workload, rec.Trace, len(rec.Metrics), len(defs))
		}
		for _, def := range defs {
			m, ok := rec.Metrics[def.name]
			if !ok || m.Unit != def.unit {
				t.Errorf("%s trace=%d: metric %s missing or unit %q, want %q", rec.Workload, rec.Trace, def.name, m.Unit, def.unit)
			}
			if rec.Trace == 0 && !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", rec.Workload, def.name, m.Value)
			}
		}
		if rec.Trace == 0 {
			continue
		}
		for _, suffix := range []string{".ed25519", ".hmac"} {
			rungs := make([]float64, len(ladderRungs))
			for i, name := range ladderRungs {
				rungs[i] = rec.Metrics[name+suffix].Value
			}
			checkSelfTimes(t, rungs)
		}
		if got := rec.Metrics["keydist.messages_per_setup"].Value; got != 3*serveN*(serveN-1) {
			t.Errorf("keydist.messages_per_setup = %v, want 3n(n-1) = %d", got, 3*serveN*(serveN-1))
		}
		signs, tests := rec.Metrics["sig.signs_per_inst"].Value, rec.Metrics["sig.tests_per_inst"].Value
		switch rec.Workload {
		case "serve_steady":
			if signs != serveT+1 || tests <= 0 {
				t.Errorf("serve_steady: %v signs and %v tests per instance, want t+1 = %d signs and fresh values reaching verification", signs, tests, serveT+1)
			}
			if hit := rec.Metrics["service.pool_hit_ratio"].Value; hit != 1 {
				t.Errorf("serve_steady: pool hit ratio %v inside the window, want 1", hit)
			}
		case "eig_grid":
			if signs != 0 || tests != 0 {
				t.Errorf("eig_grid: %v signs and %v tests per instance, want none", signs, tests)
			}
		}
	}
	spans, err := os.ReadFile(filepath.Join(out, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(spans), []byte("\n"))
	byID := make(map[int64]span, len(lines))
	for _, line := range lines {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("trace.jsonl: %v in %q", err, line)
		}
		if s.Trace == "" || s.Name == "" || s.End < s.Start {
			t.Fatalf("malformed span %+v", s)
		}
		byID[s.Span] = s
	}
	for _, s := range byID {
		if parent, ok := byID[s.Parent]; s.Parent != 0 && (!ok || parent.Trace != s.Trace) {
			t.Fatalf("span %+v names a parent outside its trace", s)
		}
	}
}

func checkSelfTimes(t *testing.T, rungs []float64) {
	t.Helper()
	sum := 0.0
	for i, self := range ladderSelfTimes(rungs) {
		if self < 0 {
			t.Errorf("rung %s has negative self time %v", ladderRungs[i], self)
		}
		sum += self
	}
	top := 0.0
	for _, v := range rungs {
		top = math.Max(top, v)
	}
	if math.Abs(sum-top) > 1e-6*top {
		t.Errorf("self times sum to %v, the ladder's top is %v", sum, top)
	}
}

func TestLadderSelfTimes(t *testing.T) {
	checkSelfTimes(t, []float64{420, 380, 300, 305, 290, 280}) // a rung measured below the one under it
	if got := ladderSelfTimes([]float64{50, 30, 10}); !reflect.DeepEqual(got, []float64{20, 20, 10}) {
		t.Errorf("ladderSelfTimes = %v", got)
	}
}

// TestGeneratorIsPure pins the generator as a function of (seed, caller,
// sequence) and nothing else.
func TestGeneratorIsPure(t *testing.T) {
	pass := eigPass(false)
	type op struct{ steady, churn, eig, grid any }
	at := func(seed int64, caller, seq int) op {
		o := origin{seed: seed}
		return op{steadyRequest(o, caller, seq, "ed25519"), churnRequest(o, caller, seq, plain),
			eigInstance(o, seq, 3, pass), gridSpec(o, seq, false, plain)}
	}
	if !reflect.DeepEqual(at(7, 1, 40), at(7, 1, 40)) {
		t.Error("the same (seed, caller, seq) generated different operations")
	}
	epoch := op{steadyRequest(origin{7, 1}, 1, 40, "ed25519"), churnRequest(origin{7, 1}, 1, 40, plain),
		eigInstance(origin{7, 1}, 40, 3, pass), gridSpec(origin{7, 1}, 40, false, plain)}
	for _, other := range []op{at(8, 1, 40), at(7, 1, 41), epoch} {
		base := at(7, 1, 40)
		if reflect.DeepEqual(base.steady, other.steady) || reflect.DeepEqual(base.churn, other.churn) ||
			reflect.DeepEqual(base.eig, other.eig) || reflect.DeepEqual(base.grid, other.grid) {
			t.Error("changing seed, epoch or seq left an operation unchanged")
		}
	}
	if base, other := at(7, 1, 40), at(7, 0, 40); reflect.DeepEqual(base.steady, other.steady) ||
		reflect.DeepEqual(base.churn, other.churn) {
		t.Error("two callers were sent the same request")
	}
	fresh := make(map[int64]bool)
	for caller := 0; caller < serveCallers; caller++ {
		for seq := -64; seq < 4096; seq++ {
			req := churnRequest(origin{seed: 7}, caller, seq, plain)
			recurring := req.KeySeed >= 7 && req.KeySeed < 7+churnKeySeeds
			wantFresh := seq >= 0 && seq%churnFreshEvery == churnFreshEvery-1
			if recurring == wantFresh {
				t.Fatalf("caller %d seq %d: key seed %d, fresh wanted: %v", caller, seq, req.KeySeed, wantFresh)
			}
			if wantFresh {
				if fresh[req.KeySeed] {
					t.Fatalf("never-seen key seed %d was sent twice", req.KeySeed)
				}
				fresh[req.KeySeed] = true
			}
			if req.Protocol == "smallrange" && (len(req.Value) != 1 || req.Value[0] > 1) {
				t.Fatalf("smallrange value %v is not one bit", req.Value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

// TestCompare checks the three verdicts and the exit condition on two
// hand-made result files.
func TestCompare(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, scale map[string]float64, jitter float64, failed int) string {
		file := resultFile{Schema: resultSchema, GoVersion: "go", GOMAXPROCS: 2, NProc: 2}
		for i := 0; i < 10; i++ {
			rec := runRecord{Workload: "serve_steady", Seed: int64(i), Correct: failed == 0, Attempted: 1000, Failed: failed,
				Metrics: make(map[string]metric)}
			for _, m := range spec.EndToEnd {
				factor := 1.0
				if s, ok := scale[m.Name]; ok {
					factor = s
				}
				rec.Metrics[m.Name] = metric{Value: 100 * factor * (1 + jitter*float64(i-5)/5), Unit: m.Unit}
			}
			file.Runs = append(file.Runs, rec)
		}
		data, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", nil, 0.001, 0)
	cases := []struct {
		name    string
		path    string
		ok      bool
		verdict string
	}{
		{"same", write("same.json", nil, 0.001, 0), true, "pass"},
		{"slower", write("slower.json", map[string]float64{"latency_p50_us": 1.5}, 0.001, 0), false, "regressed"},
		{"lower throughput", write("lower.json", map[string]float64{"inst_per_s": 0.5}, 0.001, 0), false, "regressed"},
		{"higher throughput", write("higher.json", map[string]float64{"inst_per_s": 1.5}, 0.001, 0), true, "pass"},
		{"noisy", write("noisy.json", nil, 0.9, 0), true, "unresolved"},
		{"failures", write("failures.json", nil, 0.001, 3), false, "regressed"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		ok, err := compareFiles(&buf, base, c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.ok || !strings.Contains(buf.String(), c.verdict) {
			t.Errorf("%s: ok=%v, want %v with a %q row:\n%s", c.name, ok, c.ok, c.verdict, buf.String())
		}
	}
}

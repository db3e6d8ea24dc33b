package fd_test

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/protocol"
)

// A mutant is a rule of the paper taken out of the production code by
// changing one line: the line (trimmed) must occur exactly once in file,
// and replace stands in for it. killer is the campaign cell that must
// kill it on every run, violating exactly predicates (sorted); the zero
// cell records a mutant no strategy is known to kill. Every survivor cell leaves it
// fully conformant. The cells must form the product of their adversaries
// and network conditions: that product is the row's spec.
type mutant struct {
	rule, file, line, replace string
	killer                    cell
	predicates                []string
	survivors                 []cell
}

// A cell is one adversary on one network condition ("" is ideal).
type cell struct{ adv, net string }

var mutants = []mutant{{
	rule: "Fig. 2: check the signatures of the message and the submessages",
	file: "internal/fd/chain.go", line: "if err := r.verify(chain, from); err != nil {",
	replace: "if err := error(nil); err != nil {",
	// P_1 sends P_2 a chain of "forged" it signed alone: only the
	// signatures are wrong.
	killer:     cell{adv: "relay:behavior=resign"},
	predicates: []string{campaign.PredAgreement, campaign.PredValidity},
	// P_1 re-signs the sender's chain naming P_2: the mutant relays the
	// sender's own value, so every node still decides it.
	survivors: []cell{{adv: "relay:behavior=wrong-name"}},
}, {
	rule: "Fig. 2: the layers are signed by positions 0, 1, … in order",
	file: "internal/fd/chain.go", line: "if want := r.at(k); s != want {",
	replace:    "if want := r.at(k); false && s != want {",
	killer:     cell{adv: "relay:behavior=resign"},
	predicates: []string{campaign.PredAgreement, campaign.PredValidity},
	survivors:  []cell{{adv: "relay:behavior=wrong-name"}},
}, {
	// The signer order and VerifyTo's sender already fix the length (see
	// README): no strategy kills this one.
	rule: "Fig. 2: position p's chain has min(p, t+1) layers",
	file: "internal/fd/chain.go", line: "if want := min(r.pos, r.cfg.T+1); chain.Len() != want {",
	replace: "if want := min(r.pos, r.cfg.T+1); false && chain.Len() != want {",
	survivors: []cell{{adv: "relay:behavior=resign"}, {adv: "relay:behavior=wrong-name"},
		{adv: "relay:behavior=tamper"}, {adv: "nodes=1+2:behavior=resign"}, {adv: "coalition:size=2,behavior=equivocate"}},
}, {
	rule: "Fig. 2: a relay sends its chain once",
	file: "internal/fd/chain.go", line: "return []model.Message{{To: r.at(r.pos + 1), Kind: model.KindChainValue, Payload: payload}}",
	replace: "m := model.Message{To: r.at(r.pos + 1), Kind: model.KindChainValue, Payload: payload}; return []model.Message{m, m}",
	// P_2 discovers the second copy, so only the count, n−1, tells the
	// run from a correct one; faulty and degraded runs are not held to it.
	killer:     cell{adv: campaign.AdvNone},
	predicates: []string{campaign.PredComplexity},
	survivors: []cell{{adv: "relay:behavior=crash"}, {campaign.AdvNone, "churn=5@2-4"}, {"relay:behavior=crash", "churn=5@2-4"},
		{campaign.AdvNone, "latency=uniform-0-2"}, {"relay:behavior=crash", "latency=uniform-0-2"}},
}}

// mutate returns src with m's line replaced, or an error naming m's rule
// when the line does not occur exactly once: the rule has moved.
func mutate(src []byte, m mutant) ([]byte, error) {
	lines, at, n := strings.Split(string(src), "\n"), 0, 0
	for i, l := range lines {
		if strings.TrimSpace(l) == m.line {
			at, n = i, n+1
		}
	}
	if n != 1 {
		return nil, fmt.Errorf("%s: %q occurs %d times in %s, want once", m.rule, m.line, n, m.file)
	}
	lines[at] = m.replace
	return []byte(strings.Join(lines, "\n")), nil
}

// cells lists m's killer, if it has one, and its survivors.
func (m mutant) cells() []cell {
	if m.killer == (cell{}) {
		return m.survivors
	}
	return append([]cell{m.killer}, m.survivors...)
}

func (c cell) network() string { return cmp.Or(c.net, campaign.NetCondIdeal) }

func (c cell) String() string { return c.adv + " on " + c.network() }

// spec is the campaign over m's cells: the chain at n=6, t=2.
func (m mutant) spec() campaign.Spec {
	s := campaign.Spec{Name: "rules", Protocols: []string{protocol.NameChain},
		Cases: []campaign.Case{{N: 6, T: 2}}, SeedBase: 1000, SeedCount: 3}
	for _, c := range m.cells() {
		if !slices.Contains(s.Adversaries, c.adv) {
			s.Adversaries = append(s.Adversaries, c.adv)
		}
		if !slices.Contains(s.NetConds, c.network()) {
			s.NetConds = append(s.NetConds, c.network())
		}
	}
	return s
}

// groups indexes rep's groups, which come in expansion order (adversary,
// then network condition), by the cell each one ran.
func groups(t *testing.T, m mutant, rep *campaign.Report) map[cell]campaign.GroupSummary {
	s, out := m.spec(), map[cell]campaign.GroupSummary{}
	if len(rep.Groups) != len(m.cells()) || len(rep.Groups) != len(s.Adversaries)*len(s.NetConds) {
		t.Fatalf("%s: %d groups for %d cells: the cells must be a product", m.rule, len(rep.Groups), len(m.cells()))
	}
	for _, c := range m.cells() {
		g := rep.Groups[slices.Index(s.Adversaries, c.adv)*len(s.NetConds)+slices.Index(s.NetConds, c.network())]
		if g.Errors > 0 {
			t.Fatalf("%s: %s: %d instances errored", m.rule, g.Key, g.Errors)
		}
		out[c] = g
	}
	return out
}

// runMutant builds fdcampaign with m's line changed, using go build
// -overlay from the module root, and returns its report on m.spec().
func runMutant(t *testing.T, m mutant) *campaign.Report {
	t.Helper()
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("mutants are built with the go command: %v", err)
	}
	const root = "../.." // the module, where go build runs and m.file is
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join(root, m.file))
	if err == nil {
		src, err = mutate(src, m)
	}
	if err != nil {
		t.Fatal(err)
	}
	overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {m.file: filepath.Join(dir, "mutant.go")}})
	spec, _ := json.Marshal(m.spec())
	for name, data := range map[string][]byte{"mutant.go": src, "overlay.json": overlay, "spec.json": spec} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	build := exec.Command(goCmd, "build", "-overlay", filepath.Join(dir, "overlay.json"), "-o", filepath.Join(dir, "fdcampaign"), "./cmd/fdcampaign")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("%s: building the mutant: %v\n%s", m.rule, err, out)
	}
	var rep campaign.Report
	out, err := exec.Command(filepath.Join(dir, "fdcampaign"), "-spec", filepath.Join(dir, "spec.json"), "-json", "-", "-workers", "1").Output()
	if err == nil {
		err = json.Unmarshal(out, &rep)
	}
	if err != nil {
		t.Fatalf("%s: running the mutant: %v", m.rule, err)
	}
	return &rep
}

// TestEveryRuleHasAKiller holds each rule the paper states to a campaign
// cell that kills the real code with that one line changed, built with
// go build -overlay, while the correct chain stays conformant in every
// cell. The verdicts are the kill matrix in testdata.
func TestEveryRuleHasAKiller(t *testing.T) {
	var matrix []string
	killed := 0
	for _, m := range mutants {
		rep := runMutant(t, m)
		correct, err := campaign.Run(m.spec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups(t, m, correct) {
			if g.Conformant != g.Instances {
				t.Errorf("%s: the correct chain violates %v under %s", m.rule, g.Violations, g.Key)
			}
		}

		got, killer, verdict := groups(t, m, rep), "none known", "killed no"
		if k, ok := got[m.killer]; ok {
			killer = fmt.Sprintf("%s violates %s", m.killer, cmp.Or(strings.Join(k.Violations, ","), "nothing"))
			if k.Conformant == 0 && slices.Equal(k.Violations, m.predicates) {
				verdict = "killed yes"
				killed++
			} else {
				t.Errorf("%s: the mutant survives %s: %d/%d runs conformant, violations %v, want exactly %v on every run",
					m.rule, m.killer, k.Conformant, k.Instances, k.Violations, m.predicates)
			}
		}
		var survivors []string
		for _, c := range m.survivors {
			if g := got[c]; g.Conformant != g.Instances {
				t.Errorf("%s: %s now kills the mutant (%v): make it a killer", m.rule, c, g.Violations)
			}
			survivors = append(survivors, c.String())
		}
		matrix = append(matrix, strings.Join([]string{m.rule, m.line, "killer " + killer,
			"survivors " + strings.Join(survivors, "; "), verdict}, " | "))
	}
	matrix = append(matrix, fmt.Sprintf("mutation score %d/%d", killed, len(mutants)))
	if want, err := os.ReadFile("testdata/kill_matrix.txt"); err != nil || string(want) != strings.Join(matrix, "\n")+"\n" {
		t.Errorf("the kill matrix differs from testdata/kill_matrix.txt (%v); it reads:\n%s", err, strings.Join(matrix, "\n"))
	}
}

// TestMutantLineOccursOnce: a row whose line has moved away, or that
// matches twice, fails and names its rule.
func TestMutantLineOccursOnce(t *testing.T) {
	m := mutant{rule: "a rule", file: "x.go", line: "x++", replace: "x--"}
	if got, err := mutate([]byte("\tx++\n"), m); err != nil || string(got) != "x--\n" {
		t.Errorf("mutate = %q, %v", got, err)
	}
	for _, src := range []string{"y++\n", "x++\n\tx++\n"} {
		if _, err := mutate([]byte(src), m); err == nil || !strings.Contains(err.Error(), m.rule) {
			t.Errorf("mutate(%q) = %v, want an error naming %q", src, err, m.rule)
		}
	}
}

// TestComplexityScoresHonestIdealRunsOnly: the relay that forwards twice
// overspends Fig. 2's n−1 in every run, but only the runs with no faulty
// node on the ideal network are held to the count — not a faulty relay,
// a churned node or a delaying link.
func TestComplexityScoresHonestIdealRunsOnly(t *testing.T) {
	i := slices.IndexFunc(mutants, func(m mutant) bool { return m.rule == "Fig. 2: a relay sends its chain once" })
	if i < 0 {
		t.Fatal("no twice-sending relay row in the mutant table")
	}
	rep := runMutant(t, mutants[i])
	if len(rep.Groups) != 6 {
		t.Fatalf("%d groups, want 6", len(rep.Groups))
	}
	for _, g := range rep.Groups {
		want := g.Adversary == campaign.AdvNone && g.NetCond == ""
		if got := slices.Contains(g.Violations, campaign.PredComplexity); got != want || g.Errors > 0 {
			t.Errorf("%s: violations %v (%d errors), complexity scored %v, want %v", g.Key, g.Violations, g.Errors, got, want)
		}
	}
}

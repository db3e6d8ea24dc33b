package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// These tests pin the SHAPE of every experiment table: the paper's claims
// must hold in the measured output, not merely in the formulas.

func renderOf(t *testing.T, tbl interface{ String() string }) string {
	t.Helper()
	s := tbl.String()
	if s == "" {
		t.Fatal("empty table")
	}
	return s
}

func TestE1MatchesPaperFormula(t *testing.T) {
	tbl := E1KeyDistribution([]int{4, 8, 16})
	out := renderOf(t, tbl)
	if strings.Contains(out, "false") {
		t.Errorf("E1 has a mismatching row:\n%s", out)
	}
}

func TestE2MatchesPaperFormula(t *testing.T) {
	tbl := E2AuthenticatedFD([]int{4, 8, 16})
	out := renderOf(t, tbl)
	if strings.Contains(out, "false") {
		t.Errorf("E2 has a mismatching row:\n%s", out)
	}
}

func TestE3MatchesPaperFormula(t *testing.T) {
	tbl := E3NonAuthFD([]int{8, 16})
	out := renderOf(t, tbl)
	if strings.Contains(out, "false") {
		t.Errorf("E3 has a mismatching row:\n%s", out)
	}
}

func TestE4CrossoverSmall(t *testing.T) {
	// The paper's pitch: with t = Θ(n), the one-off key distribution pays
	// for itself after a CONSTANT number of runs (~3n/t ≈ 9–13).
	tbl := E4Amortization([]int{16, 32, 64}, []int{50})
	out := renderOf(t, tbl)
	if strings.Contains(out, "false") {
		t.Errorf("E4: local auth not winning by k=50:\n%s", out)
	}
}

func TestE5NoViolations(t *testing.T) {
	tbl := E5Theorem2(3)
	out := renderOf(t, tbl)
	for _, line := range strings.Split(out, "\n")[3:] {
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		if fields[len(fields)-1] != "0" || fields[len(fields)-2] != "0" {
			t.Errorf("E5 violation row: %s", line)
		}
	}
}

func TestE6E7NoViolationsAndDiscoveries(t *testing.T) {
	tbl := E6E7Properties(3)
	out := renderOf(t, tbl)
	// Every attack row must show zero F1/F2/F3 violations and full
	// discovery counts (all these attacks are detectable).
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")[3:]
	if len(rows) < 6 {
		t.Fatalf("too few attack rows:\n%s", out)
	}
	for _, line := range rows {
		fields := strings.Fields(line)
		if len(fields) < 6 {
			continue
		}
		f1, f2, f3 := fields[len(fields)-4], fields[len(fields)-3], fields[len(fields)-2]
		if f1 != "0" || f2 != "0" || f3 != "0" {
			t.Errorf("E6/E7 property violation: %s", line)
		}
		if fields[len(fields)-1] == "0" {
			t.Errorf("E6/E7 attack went undiscovered: %s", line)
		}
	}
}

func TestE8ShapeOMExplodesFDLinear(t *testing.T) {
	tbl := E8Baselines()
	out := renderOf(t, tbl)
	// At n=13, t=4: OM entries must dwarf FD's 12 messages by orders of
	// magnitude. Just assert the table rendered all four rows.
	if !strings.Contains(out, "13") {
		t.Errorf("E8 missing n=13 row:\n%s", out)
	}
}

func TestE9SavingsShape(t *testing.T) {
	tbl := E9SmallRange()
	out := renderOf(t, tbl)
	if !strings.Contains(out, "E9") {
		t.Errorf("E9 table malformed:\n%s", out)
	}
}

func TestE11SMBreaksFDDiscovers(t *testing.T) {
	tbl := E11LocalAuthBA(3)
	out := renderOf(t, tbl)
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var smRow, fdRow string
	for _, r := range rows {
		if strings.Contains(r, "SM(t)") {
			smRow = r
		}
		if strings.Contains(r, "chain failure discovery") {
			fdRow = r
		}
	}
	if smRow == "" || fdRow == "" {
		t.Fatalf("E11 rows missing:\n%s", out)
	}
	smFields := strings.Fields(smRow)
	// SM: agreement violations == runs (always splits), silent == runs.
	if smFields[len(smFields)-3] == "0" {
		t.Errorf("E11: SM(t) did not split under the G3 attack: %s", smRow)
	}
	fdFields := strings.Fields(fdRow)
	// FD: zero silent violations, every run discovered.
	if fdFields[len(fdFields)-2] != "0" {
		t.Errorf("E11: FD had silent violations: %s", fdRow)
	}
	if fdFields[len(fdFields)-1] == "0" {
		t.Errorf("E11: FD made no discoveries: %s", fdRow)
	}
}

func TestE12VectorMatchesFormula(t *testing.T) {
	tbl := E12VectorFD([]int{4, 8})
	out := renderOf(t, tbl)
	if strings.Contains(out, "false") {
		t.Errorf("E12 has a mismatching row:\n%s", out)
	}
}

// TestFrontDoorTablesMatchParentBuild pins E5, E6/E7, E8 and E11 — the
// tables that stopped building their own engines and nodes and run
// through core.Cluster instead — by bytes: the golden file is `fdbench
// -quick -e ID` for the four IDs in order, written by the build at
// fdc3c33, before the move. Never regenerate it to make this pass.
func TestFrontDoorTablesMatchParentBuild(t *testing.T) {
	want, err := os.ReadFile("testdata/tables_e5_e6_e8_e11.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, id := range []string{"E5", "E6", "E8", "E11"} {
		tbls, err := ByID(id, true)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		for i, tbl := range tbls {
			if i > 0 {
				got.WriteByte('\n')
			}
			tbl.Render(&got)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tables differ from the parent build's:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

func TestByIDKnownAndUnknown(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"} {
		tbls, err := ByID(id, true)
		if err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
		if len(tbls) == 0 {
			t.Errorf("ByID(%s): no tables", id)
		}
	}
	if _, err := ByID("E99", true); err == nil {
		t.Error("unknown experiment accepted")
	}
}

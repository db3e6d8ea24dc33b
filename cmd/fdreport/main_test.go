package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/metrics"
)

// writeReport writes a one-group fdcampaign/v1 report whose mean
// message count is msgs.
func writeReport(t *testing.T, dir, name string, msgs float64) string {
	t.Helper()
	rep := campaign.Report{
		Schema: campaign.ReportSchema, Name: name,
		Groups: []campaign.GroupSummary{{
			Key: "chain/n=4/t=1/toy/none", Instances: 4, Conformant: 4, AgreeRate: 1,
			Messages: metrics.Dist{Count: 4, Mean: msgs},
		}},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the CLI contract CI builds on: 0 clean, 1 error,
// 2 regression.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", 1000)
	same := writeReport(t, dir, "same.json", 1000)
	slow := writeReport(t, dir, "slow.json", 2000)

	if code := run([]string{"diff", old, same}); code != 0 {
		t.Errorf("clean diff exited %d, want 0", code)
	}
	if code := run([]string{"diff", old, slow}); code != 2 {
		t.Errorf("regressed diff exited %d, want 2", code)
	}
	if code := run([]string{"diff", "-threshold", "200", old, slow}); code != 0 {
		t.Errorf("within-threshold diff exited %d, want 0", code)
	}
	if code := run([]string{"diff", old, filepath.Join(dir, "missing.json")}); code != 1 {
		t.Errorf("missing file exited %d, want 1", code)
	}
	foreign := filepath.Join(dir, "foreign.json")
	if err := os.WriteFile(foreign, []byte(`{"schema":"nope/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"diff", old, foreign}); code != 1 {
		t.Errorf("foreign-schema diff exited %d, want 1", code)
	}
	if code := run([]string{"bogus"}); code != 1 {
		t.Errorf("unknown subcommand exited %d, want 1", code)
	}
	if code := run(nil); code != 1 {
		t.Errorf("no args exited %d, want 1", code)
	}
}

// TestTraceSubcommand smoke-tests the JSONL aggregation path.
func TestTraceSubcommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	lines := `{"ts":1,"kind":"begin","scope":"campaign.instance","inst":0,"node":-1}
{"ts":2,"kind":"end","scope":"campaign.instance","inst":0,"node":-1,"dur":1000000}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"trace", path}); code != 0 {
		t.Errorf("trace exited %d, want 0", code)
	}
	if code := run([]string{"trace", filepath.Join(dir, "nope.jsonl")}); code != 1 {
		t.Errorf("missing trace exited %d, want 1", code)
	}
}

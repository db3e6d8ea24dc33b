package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func campaignFixture(msgMean float64, conformant int, violations []string) *campaign.Report {
	return &campaign.Report{
		Schema:    campaign.ReportSchema,
		Name:      "fixture",
		Instances: 4,
		Groups: []campaign.GroupSummary{{
			Key: "chain/n=4/t=1/toy/none", Protocol: "chain", N: 4, T: 1,
			Scheme: "toy", Adversary: "none",
			Instances: 4, AgreeRate: 1, DiscoveryRate: 1,
			Conformant: conformant, Violations: violations,
			Messages: metrics.Dist{Count: 4, Mean: msgMean},
			Bytes:    metrics.Dist{Count: 4, Mean: 10 * msgMean},
			Rounds:   metrics.Dist{Count: 4, Mean: 3},
		}},
	}
}

func TestDiffCampaignCleanRun(t *testing.T) {
	old := campaignFixture(100, 4, nil)
	new := campaignFixture(100, 4, nil)
	d := DiffCampaign(old, new, 5)
	if len(d.Entries) != 0 {
		t.Fatalf("identical reports produced entries: %+v", d.Entries)
	}
	if d.Compared == 0 {
		t.Fatal("no comparisons recorded")
	}
	var buf strings.Builder
	d.Render(&buf)
	if !strings.Contains(buf.String(), "no changes") {
		t.Errorf("clean render = %q", buf.String())
	}
}

func TestDiffCampaignMetricRegression(t *testing.T) {
	old := campaignFixture(100, 4, nil)
	// +20% messages trips a 5% threshold but not a 50% one.
	new := campaignFixture(120, 4, nil)
	if d := DiffCampaign(old, new, 5); len(d.Regressions()) == 0 {
		t.Error("20% message growth passed a 5% threshold")
	}
	d := DiffCampaign(old, new, 50)
	if reg := d.Regressions(); len(reg) != 0 {
		t.Errorf("20%% message growth failed a 50%% threshold: %+v", reg)
	}
	// The change is still reported, just not as a regression.
	if len(d.Entries) == 0 {
		t.Error("changed metric produced no entry")
	}
}

func TestDiffCampaignConformanceIsExact(t *testing.T) {
	old := campaignFixture(100, 4, nil)
	new := campaignFixture(100, 3, []string{"agreement"})
	// Conformance has no tolerance band: even a huge threshold fails.
	d := DiffCampaign(old, new, 1000)
	reg := d.Regressions()
	if len(reg) == 0 {
		t.Fatal("lost conformant run passed the gate")
	}
	metricsSeen := make(map[string]bool)
	for _, e := range reg {
		metricsSeen[e.Metric] = true
	}
	if !metricsSeen["conform_rate"] || !metricsSeen["violation"] {
		t.Errorf("expected conform_rate and violation regressions, got %+v", reg)
	}
}

func TestDiffCampaignStructuralChanges(t *testing.T) {
	old := campaignFixture(100, 4, nil)
	new := campaignFixture(100, 4, nil)
	new.Groups[0].Key = "chain/n=8/t=2/toy/none"
	d := DiffCampaign(old, new, 5)
	var missing, added bool
	for _, e := range d.Entries {
		if e.Metric == "group" && e.Regressed {
			missing = true
		}
		if e.Metric == "group" && !e.Regressed {
			added = true
		}
	}
	if !missing || !added {
		t.Errorf("group rename should yield one missing (regressed) and one new entry: %+v", d.Entries)
	}
}

func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	return path
}

// TestDiffFilesAutodetect: two fdcampaign/v1 files diff; anything else
// is refused with the schema it carries named in the error.
func TestDiffFilesAutodetect(t *testing.T) {
	dir := t.TempDir()
	oldCamp := writeJSON(t, dir, "oldc.json", campaignFixture(100, 4, nil))
	newCamp := writeJSON(t, dir, "newc.json", campaignFixture(100, 4, nil))
	d, err := DiffFiles(oldCamp, newCamp, 5)
	if err != nil {
		t.Fatalf("DiffFiles(campaign): %v", err)
	}
	if d.Schema != campaign.ReportSchema || len(d.Entries) != 0 {
		t.Errorf("campaign diff = %+v", d)
	}
	grown := writeJSON(t, dir, "grown.json", campaignFixture(120, 4, nil))
	if d, err = DiffFiles(oldCamp, grown, 5); err != nil || len(d.Regressions()) == 0 {
		t.Errorf("20%% message growth across files: diff = %+v, err = %v", d, err)
	}

	for _, schema := range []string{"fdserve-stats/v1", "nope/v9"} {
		other := writeJSON(t, dir, "other.json", map[string]string{"schema": schema})
		for _, pair := range [][2]string{{other, newCamp}, {oldCamp, other}} {
			_, err := DiffFiles(pair[0], pair[1], 5)
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(schema)) {
				t.Errorf("diff against a %s file = %v, want a refusal naming the schema", schema, err)
			}
		}
	}
}

func TestAggregateTrace(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindBegin, Scope: "campaign.instance"},
		{Kind: obs.KindEnd, Scope: "campaign.instance", Dur: int64(2 * time.Millisecond)},
		{Kind: obs.KindBegin, Scope: "campaign.instance"},
		{Kind: obs.KindEnd, Scope: "campaign.instance", Dur: int64(4 * time.Millisecond)},
		{Kind: obs.KindPoint, Scope: "sched.heartbeat"},
		{Kind: obs.KindEnd, Scope: "core.keydist", Dur: int64(time.Millisecond)},
	}
	sums := AggregateTrace(events)
	if len(sums) != 3 {
		t.Fatalf("got %d scopes, want 3", len(sums))
	}
	// Sorted by total span time descending: instance (6ms) first.
	top := sums[0]
	if top.Scope != "campaign.instance" || top.Spans != 2 || top.Events != 4 {
		t.Errorf("top scope = %+v", top)
	}
	if top.Mean != 3*time.Millisecond || top.Max != 4*time.Millisecond {
		t.Errorf("instance mean/max = %v/%v", top.Mean, top.Max)
	}
	tbl := TraceTable(sums)
	if tbl.NumRows() != 3 {
		t.Errorf("trace table rows = %d", tbl.NumRows())
	}
}

func TestDiffRenderShowsRegression(t *testing.T) {
	d := DiffCampaign(campaignFixture(100, 4, nil), campaignFixture(150, 4, nil), 10)
	var buf strings.Builder
	d.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "messages.mean") {
		t.Errorf("render missing regression markers:\n%s", out)
	}
}

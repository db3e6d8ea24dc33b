// Package report implements the analytics layer over the repository's
// JSON artifacts: fdcampaign/v1 campaign reports and obs JSONL traces.
// It diffs two campaign reports for conformance deltas and cost-metric
// regressions against a threshold, renders sweep tables, and aggregates
// traces by scope — cmd/fdreport is a thin CLI over it. Performance
// numbers are not its business: time, throughput and heap come from
// `go run -C benchmark .`, exact allocation counts from `go test`.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/metrics"
)

// Entry is one comparison between the old and the new report: a cell
// (campaign group key), a metric within it, and the two values.
// Regressed entries fail the gate; Note carries structural findings
// (cells appearing or disappearing) that have no numeric pair.
type Entry struct {
	Cell      string  `json:"cell"`
	Metric    string  `json:"metric"`
	Old       float64 `json:"old"`
	New       float64 `json:"new"`
	DeltaPct  float64 `json:"delta_pct"`
	Regressed bool    `json:"regressed"`
	Note      string  `json:"note,omitempty"`
}

// Diff is the outcome of comparing two campaign reports. Entries lists
// only the comparisons that changed (or are structural notes); Compared
// counts every comparison made, changed or not, so the summary can say
// how much ground the gate actually covered.
type Diff struct {
	Schema    string  `json:"schema"`
	Threshold float64 `json:"threshold_pct"`
	OldLabel  string  `json:"old"`
	NewLabel  string  `json:"new"`
	Compared  int     `json:"compared"`
	Entries   []Entry `json:"entries"`
}

// Regressions returns the entries that fail the gate.
func (d *Diff) Regressions() []Entry {
	var out []Entry
	for _, e := range d.Entries {
		if e.Regressed {
			out = append(out, e)
		}
	}
	return out
}

// pctDelta is the relative change from old to new in percent. A zero
// baseline with a nonzero new value reads as +100% — enough to trip any
// sane threshold without manufacturing an infinity.
func pctDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100
	}
	return (new - old) / old * 100
}

// compare appends an entry when the value changed, marking it regressed
// when it grew past the threshold (all gated metrics here are
// smaller-is-better: messages, bytes, rounds).
func (d *Diff) compare(cell, metric string, old, new float64) {
	d.Compared++
	if old == new {
		return
	}
	delta := pctDelta(old, new)
	d.Entries = append(d.Entries, Entry{
		Cell: cell, Metric: metric, Old: old, New: new,
		DeltaPct:  delta,
		Regressed: delta > d.Threshold,
	})
}

// note appends a structural finding.
func (d *Diff) note(cell, metric, note string, regressed bool) {
	d.Entries = append(d.Entries, Entry{Cell: cell, Metric: metric, Note: note, Regressed: regressed})
}

// DiffCampaign compares two fdcampaign/v1 reports group by group.
// Conformance is gated exactly (any lost conformant run, any new
// violation predicate, any agreement drop regresses — correctness has
// no tolerance band); the cost distributions (messages, bytes, rounds)
// are gated on their means against the percent threshold.
func DiffCampaign(old, new *campaign.Report, thresholdPct float64) *Diff {
	d := &Diff{Schema: campaign.ReportSchema, Threshold: thresholdPct,
		OldLabel: old.Name, NewLabel: new.Name}
	newGroups := make(map[string]campaign.GroupSummary, len(new.Groups))
	for _, g := range new.Groups {
		newGroups[g.Key] = g
	}
	seen := make(map[string]bool, len(old.Groups))
	for _, og := range old.Groups {
		seen[og.Key] = true
		ng, ok := newGroups[og.Key]
		if !ok {
			d.note(og.Key, "group", "missing in new report", true)
			continue
		}
		// Correctness gates: exact.
		d.compare(og.Key, "errors", float64(og.Errors), float64(ng.Errors))
		if ng.AgreeRate < og.AgreeRate {
			d.Entries = append(d.Entries, Entry{Cell: og.Key, Metric: "agree_rate",
				Old: og.AgreeRate, New: ng.AgreeRate,
				DeltaPct: pctDelta(og.AgreeRate, ng.AgreeRate), Regressed: true})
		}
		oldRate, newRate := conformRate(og), conformRate(ng)
		if newRate < oldRate {
			d.Entries = append(d.Entries, Entry{Cell: og.Key, Metric: "conform_rate",
				Old: oldRate, New: newRate,
				DeltaPct: pctDelta(oldRate, newRate), Regressed: true})
		}
		for _, v := range newViolations(og.Violations, ng.Violations) {
			d.note(og.Key, "violation", "new violated predicate "+v, true)
		}
		// Cost gates: threshold on the distribution means.
		d.compare(og.Key, "messages.mean", og.Messages.Mean, ng.Messages.Mean)
		d.compare(og.Key, "bytes.mean", og.Bytes.Mean, ng.Bytes.Mean)
		d.compare(og.Key, "rounds.mean", og.Rounds.Mean, ng.Rounds.Mean)
		d.compare(og.Key, "comm_rounds.mean", og.CommRounds.Mean, ng.CommRounds.Mean)
		d.compare(og.Key, "signed_messages.mean", og.SignedMessages.Mean, ng.SignedMessages.Mean)
	}
	for _, ng := range new.Groups {
		if !seen[ng.Key] {
			d.note(ng.Key, "group", "new group (not in old report)", false)
		}
	}
	return d
}

// conformRate is the conformant fraction of a group's non-error runs.
func conformRate(g campaign.GroupSummary) float64 {
	ok := g.Instances - g.Errors
	if ok <= 0 {
		return 0
	}
	return float64(g.Conformant) / float64(ok)
}

// newViolations lists predicates violated in new but not in old.
func newViolations(old, new []string) []string {
	had := make(map[string]bool, len(old))
	for _, v := range old {
		had[v] = true
	}
	var out []string
	for _, v := range new {
		if !had[v] {
			out = append(out, v)
		}
	}
	return out
}

// LoadCampaign reads and validates an fdcampaign/v1 report file.
func LoadCampaign(path string) (*campaign.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep campaign.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("report: parse %s: %w", path, err)
	}
	if rep.Schema != campaign.ReportSchema {
		return nil, fmt.Errorf("report: %s has schema %q, want %q", path, rep.Schema, campaign.ReportSchema)
	}
	return &rep, nil
}

// DiffFiles diffs two fdcampaign/v1 report files; LoadCampaign refuses
// any other artifact by naming the schema it carries.
func DiffFiles(oldPath, newPath string, thresholdPct float64) (*Diff, error) {
	old, err := LoadCampaign(oldPath)
	if err != nil {
		return nil, err
	}
	new, err := LoadCampaign(newPath)
	if err != nil {
		return nil, err
	}
	return DiffCampaign(old, new, thresholdPct), nil
}

// Table renders the diff for humans: one row per changed comparison or
// structural note, status column flagging the gate failures.
func (d *Diff) Table() *metrics.Table {
	title := fmt.Sprintf("Diff %s: %q -> %q (threshold %.1f%%)", d.Schema, d.OldLabel, d.NewLabel, d.Threshold)
	tbl := metrics.NewTable(title, "cell", "metric", "old", "new", "delta%", "status")
	for _, e := range d.Entries {
		status := "ok"
		switch {
		case e.Regressed:
			status = "REGRESSED"
		case e.Note != "":
			status = "note"
		case e.DeltaPct < 0:
			status = "improved"
		}
		if e.Note != "" {
			tbl.AddRow(e.Cell, e.Metric, "-", "-", e.Note, status)
			continue
		}
		tbl.AddRow(e.Cell, e.Metric, e.Old, e.New, fmt.Sprintf("%+.2f", e.DeltaPct), status)
	}
	return tbl
}

// Render writes the human diff: the table of changes (or a no-change
// line) and a one-line summary of coverage and verdict.
func (d *Diff) Render(w io.Writer) {
	if len(d.Entries) == 0 {
		fmt.Fprintf(w, "no changes across %d comparisons (threshold %.1f%%)\n", d.Compared, d.Threshold)
		return
	}
	d.Table().Render(w)
	reg := len(d.Regressions())
	fmt.Fprintf(w, "%d comparisons, %d changed, %d regression(s) at threshold %.1f%%\n",
		d.Compared, len(d.Entries), reg, d.Threshold)
}

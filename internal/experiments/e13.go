package experiments

import (
	"strings"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/sig"
)

// E13AdversaryGrid — the adversary-strategy conformance sweep: every
// registered protocol driver against the composable behavior families
// (crash, targeted drop, bounded delay, duplicate flood, payload
// tampering, partitioned equivocation, seeded coalitions), each
// completed run scored against the paper's predicates
// (campaign.Verdict). The table is the paper's F1–F3 claims as a
// measured grid: the authenticated protocols stay conformant under
// every mix, the full agreement protocols (fdba, sm) additionally hold
// agreement under their strict reading — discoveries never excuse a
// split decision — while the expected-failure rows (the simplified
// small-range variant under suppression) disagree exactly where the
// theory says they may.
func E13AdversaryGrid(seeds int) *metrics.Table {
	if seeds < 1 {
		seeds = 1
	}
	rep := mustRun(campaign.Spec{
		Name:      "E13",
		Protocols: protocol.Names(),
		Sizes:     []int{7},
		Schemes:   []string{sig.SchemeToy},
		Adversaries: []string{
			campaign.AdvNone,
			campaign.AdvCrashSender,
			campaign.AdvEquivocate,
			"coalition:size=2,behavior=crash,round=2",
			"coalition:size=1,behavior=delay,delay=2",
			"coalition:size=2,behavior=equivocate,partition=even-odd",
			"relay:behavior=drop,victims=2+3",
			"nodes=1:behavior=duplicate,victims=0,behavior=tamper",
		},
		SeedBase:  19950530,
		SeedCount: seeds,
	})
	tbl := metrics.NewTable(
		"E13 — Adversary-strategy conformance grid (F1–F3 as a measured property test)",
		"protocol", "n", "t", "adversary", "runs", "agree", "discover", "conform", "violations")
	for _, g := range rep.Groups {
		violations := "-"
		if len(g.Violations) > 0 {
			violations = strings.Join(g.Violations, " ")
		}
		tbl.AddRow(g.Protocol, g.N, g.T, g.Adversary, g.Instances,
			g.AgreeRate, g.DiscoveryRate,
			float64(g.Conformant)/float64(g.Instances), violations)
	}
	return tbl
}

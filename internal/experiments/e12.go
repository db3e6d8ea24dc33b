package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/fd"
	"repro/internal/metrics"
)

// E12VectorFD — beyond-paper composition: all n nodes propose at once
// through n rotated chain instances sharing the same rounds (the
// failure-discovery analogue of interactive consistency). The point is
// the amortization argument at full tilt: ONE key distribution, then a
// whole vector round costs n(n−1) messages in t+1 rounds, versus
// n·(t+1)(n−1) for n baseline runs. The rows are one campaign sweep over
// the vector driver, one seeded instance per size.
func E12VectorFD(sizes []int) *metrics.Table {
	tbl := metrics.NewTable(
		"E12 — Vector failure discovery (n simultaneous senders, beyond-paper)",
		"n", "t", "messages", "n(n-1)", "match", "rounds", "baseline n runs")
	cases := make([]campaign.Case, len(sizes))
	for i, n := range sizes {
		cases[i] = campaign.Case{N: n, T: tolFor(n)}
	}
	rep, err := campaign.Run(campaign.Spec{
		Name:      "e12-vector-fd",
		Protocols: []string{campaign.ProtoVector},
		Cases:     cases,
		SeedBase:  Seed + 12,
		SeedCount: 1,
	}, 0)
	if err != nil {
		panic(fmt.Sprintf("experiments: e12 campaign: %v", err))
	}
	for _, g := range mustCleanGroups(rep) {
		msgs := int(g.Messages.Mean)
		want := fd.VectorMessages(g.N)
		tbl.AddRow(g.N, g.T, msgs, want, msgs == want,
			int(g.CommRounds.Mean), g.N*fd.NonAuthMessages(g.N, g.T))
	}
	return tbl
}

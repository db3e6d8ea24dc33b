package experiments

import (
	"sync/atomic"

	"repro/internal/ba"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// E6E7Properties sweeps the chain protocol at (n, t) = (6, 2) over eight
// attack strategies, runs seeds each, and counts the runs whose verdict
// fails termination (F1), agreement (F2) or validity (F3), and those that
// discovered a failure: Theorem 4's dichotomy, agreement or discovery.
func E6E7Properties(runs int) *metrics.Table {
	rep := mustRun(campaign.Spec{
		Name:      "E6/E7",
		Protocols: []string{campaign.ProtoChain},
		Cases:     []campaign.Case{{N: 6, T: 2}},
		Adversaries: []string{
			"relay:name=silent-relay,behavior=crash",
			"sender:name=silent-sender,behavior=crash",
			"relay:name=tamper-relay,behavior=tamper",
			"relay:name=resign-relay,behavior=resign",
			"relay:name=wrong-name-relay,behavior=wrong-name",
			"sender:name=equivocating-sender,behavior=equivocate",
			"nodes=2:name=split-disseminator,behavior=drop,victims=4+5",
			"nodes=0+2:name=colluding-pair,behavior=resign",
		},
		SeedBase:  Seed,
		SeedCount: runs,
	})
	tbl := metrics.NewTable(
		"E6/E7 — Theorem 4 and F1–F3 under chain-protocol attacks (local authentication)",
		"attack", "runs", "F1 viol", "F2 viol", "F3 viol", "runs w/ discovery")
	for i, g := range rep.Groups {
		res := rep.Results[i*runs : (i+1)*runs] // a group's seeds are adjacent
		tbl.AddRow(g.Adversary, g.Instances,
			countRuns(res, func(r campaign.Result) bool { return !r.Conformance.Termination }),
			countRuns(res, func(r campaign.Result) bool { return !r.Conformance.Agreement }),
			countRuns(res, func(r campaign.Result) bool { return !r.Conformance.Validity }),
			countRuns(res, func(r campaign.Result) bool { return r.Discovered }))
	}
	return tbl
}

// E8Baselines contrasts the agreement substrate costs: OM(t)'s exponential
// relayed entries, SM(t)'s quadratic messages, and FD's linear messages.
// The SM(t) and FDBA columns are one campaign sweep: failure-free message
// counts do not depend on how authentication was established.
func E8Baselines() *metrics.Table {
	tbl := metrics.NewTable(
		"E8 — Protocol cost context ([4] OM/SM vs failure discovery)",
		"n", "t", "OM(t) entries", "SM(t) messages", "FDBA failure-free msgs", "FD messages")
	cases := []campaign.Case{{N: 4, T: 1}, {N: 7, T: 2}, {N: 10, T: 3}, {N: 13, T: 4}}
	rep := mustRun(campaign.Spec{
		Name:      "e8-baselines",
		Protocols: []string{campaign.ProtoSM, campaign.ProtoFDBA},
		Cases:     cases,
		SeedBase:  Seed,
		SeedCount: 1,
	})
	type cell struct {
		proto string
		campaign.Case
	}
	msgs := make(map[cell]int)
	for _, g := range rep.Groups {
		msgs[cell{g.Protocol, campaign.Case{N: g.N, T: g.T}}] = int(g.Messages.Mean)
	}
	for _, tc := range cases {
		cfg := model.Config{N: tc.N, T: tc.T}

		// OM(t): measure relayed entries (no keys, so no establishment).
		entries := new(atomic.Int64)
		c, err := core.New(cfg)
		if err != nil {
			panic(err)
		}
		if _, _, err := c.Run(campaign.ProtoEIG, ba.EIGEngineRounds(tc.T), func(id model.NodeID) (sim.Process, error) {
			opts := []ba.EIGOption{ba.WithEntryCounter(entries)}
			if id == ba.Sender {
				opts = append(opts, ba.WithEIGValue([]byte("v")))
			}
			return ba.NewEIGNode(cfg, id, opts...)
		}); err != nil {
			panic(err)
		}

		tbl.AddRow(tc.N, tc.T, entries.Load(), msgs[cell{campaign.ProtoSM, tc}], msgs[cell{campaign.ProtoFDBA, tc}], tc.N-1)
	}
	return tbl
}

// E9SmallRange measures the small-range variant's savings and documents
// its split-attack gap.
func E9SmallRange() *metrics.Table {
	tbl := metrics.NewTable(
		"E9 — Small value range variant (paper §5: values for missing messages)",
		"n", "t", "value", "messages", "chain-protocol messages", "saving")
	for _, n := range []int{8, 16, 32} {
		t := campaign.ClassicTol(n)
		chain, _ := failureFree(campaign.ProtoChain, n, t)
		for _, v := range []byte{0, 1} {
			res := mustInstance(campaign.Instance{Protocol: campaign.ProtoSmallRange, N: n, T: t,
				Scheme: sig.SchemeToy, Value: []byte{v}, Seed: Seed + int64(9*n) + int64(v)})
			tbl.AddRow(n, t, v, res.Messages, chain, chain-res.Messages)
		}
	}
	return tbl
}

// E10Bytes measures bytes on the wire per protocol and the linear growth
// of chain signatures with chain position.
func E10Bytes() *metrics.Table {
	tbl := metrics.NewTable(
		"E10b — Bytes on the wire (chain signatures grow linearly in hops)",
		"n", "t", "protocol", "messages", "total bytes", "bytes/message")
	for _, n := range []int{8, 16, 32} {
		t := campaign.ClassicTol(n)
		c := mustCluster(n, t, Seed+int64(10*n))
		chainRep, err := c.RunFailureDiscovery([]byte("value"))
		if err != nil {
			panic(err)
		}
		kd := c.Ledger().Reports()[0].Snapshot
		nonAuth := mustInstance(campaign.Instance{Protocol: campaign.ProtoNonAuth, N: n, T: t})
		for _, row := range []struct {
			name        string
			msgs, bytes int
		}{
			{"keydist", kd.Messages, kd.Bytes},
			{"chain-fd", chainRep.Snapshot.Messages, chainRep.Snapshot.Bytes},
			{"nonauth-fd", nonAuth.Messages, nonAuth.Bytes},
		} {
			per := 0.0
			if row.msgs > 0 {
				per = float64(row.bytes) / float64(row.msgs)
			}
			tbl.AddRow(n, t, row.name, row.msgs, row.bytes, per)
		}
	}
	return tbl
}

// E11LocalAuthBA reproduces the paper's §6 open problem: a sender that
// showed two keys in key distribution splits SM(t) agreement silently,
// while the chain FD protocol discovers the same attack.
func E11LocalAuthBA(runs int) *metrics.Table {
	_, results := mustRunKeySets(campaign.Spec{
		Name:        "E11",
		Protocols:   []string{campaign.ProtoSM, campaign.ProtoChain},
		Cases:       []campaign.Case{{N: 4, T: 1}},
		Adversaries: []string{"sender:setup=equivocate-keys"},
	}, runs, func(r int) int64 { return Seed + int64(1100+r) })
	tbl := metrics.NewTable(
		"E11 — BA vs FD under local authentication with a G3 (mixed-predicate) attacker",
		"protocol", "runs", "agreement violations", "silent violations", "runs w/ discovery")
	split := func(r campaign.Result) bool { return !r.Conformance.Agreement }
	for i, row := range []string{"SM(t) byzantine agreement", "chain failure discovery"} {
		res := results[i]
		tbl.AddRow(row, len(res), countRuns(res, split),
			countRuns(res, func(r campaign.Result) bool { return split(r) && !r.Discovered }),
			countRuns(res, func(r campaign.Result) bool { return r.Discovered }))
	}
	return tbl
}

// RoundsTable summarizes round counts per protocol (part of E8's context):
// failure-free as declared at n = 100, and SM(t)'s and FDBA's worst case
// at its round bound beside their failure-free rows.
func RoundsTable() *metrics.Table {
	tbl := metrics.NewTable(
		"E8b — Communication rounds per protocol",
		"protocol", "rounds (as function of t)", "t=1", "t=3", "t=5")
	row := func(name, formula string, f func(t int) int) {
		tbl.AddRow(name, formula, f(1), f(3), f(5))
	}
	declared := func(proto string) func(t int) int {
		return func(t int) int {
			_, rounds := failureFree(proto, 100, t)
			return rounds
		}
	}
	row("key distribution", "3", func(int) int { return keydist.CommunicationRounds })
	row("chain FD", "t+1", declared(campaign.ProtoChain))
	row("non-auth FD", "2", declared(campaign.ProtoNonAuth))
	row("OM(t)", "t+1", declared(campaign.ProtoEIG))
	row("SM(t) failure-free", "2", declared(campaign.ProtoSM))
	row("SM(t) worst case", "t+1", func(t int) int { return ba.SMEngineRounds(t) - 1 })
	row("FDBA failure-free", "t+1", declared(campaign.ProtoFDBA))
	row("FDBA worst case", "2t+5", func(t int) int { return ba.FDBAEngineRounds(t) - 1 })
	return tbl
}

package experiments

import (
	"fmt"
	"sync/atomic"

	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// fdAttack describes one adversarial failure-discovery scenario for
// E6/E7: which nodes are faulty and what they run instead.
type fdAttack struct {
	name   string
	n, t   int
	faulty model.NodeSet
	// build returns the run options that make faulty so, given the
	// honestly established cluster.
	build func(c *core.Cluster) []core.RunOption
}

// fdAttacks is the E6/E7 scenario matrix.
func fdAttacks() []fdAttack {
	wrap := func(id model.NodeID, filters ...adversary.Filter) core.RunOption {
		return core.WithWrappedProcess(id, func(p sim.Process) sim.Process { return adversary.Wrap(p, filters...) })
	}
	return []fdAttack{
		{"silent-relay", 6, 2, model.NewNodeSet(1), func(*core.Cluster) []core.RunOption {
			return []core.RunOption{core.WithProcess(1, sim.Silent{})}
		}},
		{"silent-sender", 6, 2, model.NewNodeSet(0), func(*core.Cluster) []core.RunOption {
			return []core.RunOption{core.WithProcess(0, sim.Silent{})}
		}},
		{"tamper-relay", 6, 2, model.NewNodeSet(1), func(*core.Cluster) []core.RunOption {
			return []core.RunOption{wrap(1, adversary.TamperPayload(model.KindChainValue, adversary.FlipByte(9)))}
		}},
		{"resign-relay", 6, 2, model.NewNodeSet(1), func(c *core.Cluster) []core.RunOption {
			return []core.RunOption{core.WithProcess(1, adversary.NewResignRelay(c.Config(), 1, c.Nodes()[1].Signer(), []byte("forged")))}
		}},
		{"wrong-name-relay", 6, 2, model.NewNodeSet(1), func(c *core.Cluster) []core.RunOption {
			return []core.RunOption{core.WithProcess(1, adversary.NewWrongNameRelay(c.Config(), 1, c.Nodes()[1].Signer(), 4))}
		}},
		{"equivocating-sender", 6, 2, model.NewNodeSet(0), func(c *core.Cluster) []core.RunOption {
			return []core.RunOption{core.WithProcess(0, adversary.NewEquivocatingSenderFaces(c.Config(), c.Nodes()[0].Signer(),
				[]byte("a"), []byte("b"), model.NewNodeSet(0, 1, 2)))}
		}},
		{"split-disseminator", 7, 2, model.NewNodeSet(2), func(*core.Cluster) []core.RunOption {
			return []core.RunOption{wrap(2, adversary.DropTo(model.NewNodeSet(4, 5)))}
		}},
		{"colluding-pair", 6, 2, model.NewNodeSet(0, 2), func(c *core.Cluster) []core.RunOption {
			return []core.RunOption{
				core.WithProcess(0, sim.Silent{}),
				core.WithProcess(2, adversary.NewResignRelay(c.Config(), 2, c.Nodes()[0].Signer(), []byte("forged"))),
			}
		}},
	}
}

// E6E7Properties runs the adversarial matrix and checks F1–F3 plus the
// Theorem 4 dichotomy (consistent assignment or discovery) on every run.
func E6E7Properties(runs int) *metrics.Table {
	tbl := metrics.NewTable(
		"E6/E7 — Theorem 4 and F1–F3 under chain-protocol attacks (local authentication)",
		"attack", "runs", "F1 viol", "F2 viol", "F3 viol", "runs w/ discovery")
	value := []byte("v")
	for _, atk := range fdAttacks() {
		var f1, f2, f3, disc int
		for r := 0; r < runs; r++ {
			c := mustCluster(atk.n, atk.t, Seed+int64(1000+r))
			rep, err := c.RunFailureDiscovery(value, atk.build(c)...)
			if err != nil {
				panic(err)
			}
			if core.CheckF1(rep.Outcomes, atk.faulty) != nil {
				f1++
			}
			if core.CheckF2(rep.Outcomes, atk.faulty) != nil {
				f2++
			}
			if core.CheckF3(rep.Outcomes, atk.faulty, fd.Sender, value) != nil {
				f3++
			}
			if rep.FailureDiscovered() {
				disc++
			}
		}
		tbl.AddRow(atk.name, runs, f1, f2, f3, disc)
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
	rep, err := campaign.Run(campaign.Spec{
		Name:      "e8-baselines",
		Protocols: []string{campaign.ProtoSM, campaign.ProtoFDBA},
		Cases:     cases,
		SeedBase:  Seed,
		SeedCount: 1,
	}, 0)
	if err != nil {
		panic(fmt.Sprintf("experiments: e8 campaign: %v", err))
	}
	type cell struct {
		proto string
		campaign.Case
	}
	msgs := make(map[cell]int)
	for _, g := range mustCleanGroups(rep) {
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
		t := tolFor(n)
		for _, v := range []byte{0, 1} {
			c := mustCluster(n, t, Seed+int64(9*n)+int64(v))
			rep, err := c.RunFailureDiscovery([]byte{v}, core.WithProtocol(core.ProtocolSmallRange))
			if err != nil {
				panic(err)
			}
			saving := (n - 1) - rep.Snapshot.Messages
			tbl.AddRow(n, t, v, rep.Snapshot.Messages, n-1, saving)
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
		t := tolFor(n)
		c := mustCluster(n, t, Seed+int64(10*n))
		chainRep, err := c.RunFailureDiscovery([]byte("value"))
		if err != nil {
			panic(err)
		}
		naRep, err := c.RunFailureDiscovery([]byte("value"), core.WithProtocol(core.ProtocolNonAuth))
		if err != nil {
			panic(err)
		}
		kd := c.Ledger().Reports()[0]
		for _, row := range []struct {
			name string
			rep  core.Report
		}{{"keydist", kd}, {"chain-fd", chainRep}, {"nonauth-fd", naRep}} {
			msgs := row.rep.Snapshot.Messages
			bytesTotal := row.rep.Snapshot.Bytes
			per := 0.0
			if msgs > 0 {
				per = float64(bytesTotal) / float64(msgs)
			}
			tbl.AddRow(n, t, row.name, msgs, bytesTotal, per)
		}
	}
	return tbl
}

// E11LocalAuthBA reproduces the paper's §6 open problem: the mixed-
// predicate G3 attack splits SM(t) agreement silently, while the chain FD
// protocol discovers the same attack.
func E11LocalAuthBA(runs int) *metrics.Table {
	tbl := metrics.NewTable(
		"E11 — BA vs FD under local authentication with a G3 (mixed-predicate) attacker",
		"protocol", "runs", "agreement violations", "silent violations", "runs w/ discovery")
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		panic(err)
	}
	cfg := model.Config{N: 4, T: 1}
	faulty := model.NewNodeSet(0)

	var smViol, smSilent, smDisc int
	var fdViol, fdSilent, fdDisc int
	for r := 0; r < runs; r++ {
		seed := Seed + int64(1100+r)
		mixed, err := adversary.NewMixedPredicateNode(cfg, 0, scheme, sim.SeededReader(seed), model.NewNodeSet(1))
		if err != nil {
			panic(err)
		}
		c := mustCluster(cfg.N, cfg.T, seed, core.WithProcess(0, mixed))

		// SM(t) run with the equivocating mixed-key sender.
		sm, err := c.RunFailureDiscovery(nil, core.WithProtocol(core.ProtocolSM),
			core.WithProcess(0, mixedSMSender(mixed, cfg, []byte("v"), []byte("u"))))
		if err != nil {
			panic(err)
		}
		if core.CheckF2(sm.Outcomes, faulty) != nil {
			smViol++
			smSilent++ // SM has no discovery notion at all
		}

		// Chain FD run with the same attack shape.
		chain, err := c.RunFailureDiscovery(nil, core.WithProcess(0, mixedChainSender(mixed, []byte("v"))))
		if err != nil {
			panic(err)
		}
		if chain.FailureDiscovered() {
			fdDisc++
		}
		if core.CheckF2(chain.Outcomes, faulty) != nil {
			fdViol++
			if !chain.FailureDiscovered() {
				fdSilent++
			}
		}
	}
	tbl.AddRow("SM(t) byzantine agreement", runs, smViol, smSilent, smDisc)
	tbl.AddRow("chain failure discovery", runs, fdViol, fdSilent, fdDisc)
	return tbl
}

// mixedSMSender equivocates with the mixed keys over KindSigned.
func mixedSMSender(mixed *adversary.MixedPredicateNode, cfg model.Config, v, u []byte) sim.Process {
	return sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round != 1 {
			return nil
		}
		var out []model.Message
		for _, to := range cfg.Nodes() {
			if to == 0 {
				continue
			}
			value := u
			if to == 1 {
				value = v
			}
			c, err := sig.NewChain(value, mixed.SignerFor(to))
			if err != nil {
				panic(err)
			}
			out = append(out, model.Message{To: to, Kind: model.KindSigned, Payload: c.Marshal()})
		}
		return out
	})
}

// mixedChainSender starts the FD chain signed with P_1's key variant.
func mixedChainSender(mixed *adversary.MixedPredicateNode, v []byte) sim.Process {
	return sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round != 1 {
			return nil
		}
		c, err := sig.NewChain(v, mixed.SignerFor(1))
		if err != nil {
			panic(err)
		}
		return []model.Message{{To: 1, Kind: model.KindChainValue, Payload: c.Marshal()}}
	})
}

// RoundsTable summarizes round counts per protocol (part of E8's context).
func RoundsTable() *metrics.Table {
	tbl := metrics.NewTable(
		"E8b — Communication rounds per protocol",
		"protocol", "rounds (as function of t)", "t=1", "t=3", "t=5")
	row := func(name, formula string, f func(t int) int) {
		tbl.AddRow(name, formula, f(1), f(3), f(5))
	}
	row("key distribution", "3", func(int) int { return keydist.CommunicationRounds })
	row("chain FD", "t+1", func(t int) int { return fd.ChainCommunicationRounds(100, t) })
	row("non-auth FD", "2", func(t int) int {
		if t == 0 {
			return 1
		}
		return 2
	})
	row("OM(t)", "t+1", func(t int) int { return t + 1 })
	row("SM(t)", "t+1", func(t int) int { return t + 1 })
	row("FDBA failure-free", "t+1", func(t int) int { return fd.ChainCommunicationRounds(100, t) })
	row("FDBA worst case", "2t+5", func(t int) int { return 2*t + 5 })
	return tbl
}

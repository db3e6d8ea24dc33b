package experiments

import (
	"bytes"
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
// E6/E7: which processes to replace and which property question to ask.
type fdAttack struct {
	name  string
	n, t  int
	value []byte
	// build returns the overrides, given the established cluster.
	build func(c *core.Cluster, seed int64) map[model.NodeID]sim.Process
}

// fdAttacks is the E6/E7 scenario matrix.
func fdAttacks() []fdAttack {
	mk := func(name string, n, t int, value []byte,
		build func(c *core.Cluster, seed int64) map[model.NodeID]sim.Process) fdAttack {
		return fdAttack{name: name, n: n, t: t, value: value, build: build}
	}
	chainNodeFor := func(c *core.Cluster, id model.NodeID) *fd.ChainNode {
		signer, err := c.Signer(id)
		if err != nil {
			panic(err)
		}
		dir, err := c.Directory(id)
		if err != nil {
			panic(err)
		}
		node, err := fd.NewChainNode(c.Config(), id, signer, dir)
		if err != nil {
			panic(err)
		}
		return node
	}
	return []fdAttack{
		mk("silent-relay", 6, 2, []byte("v"), func(c *core.Cluster, _ int64) map[model.NodeID]sim.Process {
			return map[model.NodeID]sim.Process{1: sim.Silent{}}
		}),
		mk("silent-sender", 6, 2, []byte("v"), func(c *core.Cluster, _ int64) map[model.NodeID]sim.Process {
			return map[model.NodeID]sim.Process{0: sim.Silent{}}
		}),
		mk("tamper-relay", 6, 2, []byte("v"), func(c *core.Cluster, _ int64) map[model.NodeID]sim.Process {
			return map[model.NodeID]sim.Process{1: adversary.Wrap(chainNodeFor(c, 1),
				adversary.TamperPayload(model.KindChainValue, adversary.FlipByte(9)))}
		}),
		mk("resign-relay", 6, 2, []byte("v"), func(c *core.Cluster, _ int64) map[model.NodeID]sim.Process {
			signer, err := c.Signer(1)
			if err != nil {
				panic(err)
			}
			return map[model.NodeID]sim.Process{1: adversary.NewResignRelay(c.Config(), 1, signer, []byte("forged"))}
		}),
		mk("wrong-name-relay", 6, 2, []byte("v"), func(c *core.Cluster, _ int64) map[model.NodeID]sim.Process {
			signer, err := c.Signer(1)
			if err != nil {
				panic(err)
			}
			return map[model.NodeID]sim.Process{1: adversary.NewWrongNameRelay(c.Config(), 1, signer, 4)}
		}),
		mk("equivocating-sender", 6, 2, []byte("v"), func(c *core.Cluster, _ int64) map[model.NodeID]sim.Process {
			signer, err := c.Signer(0)
			if err != nil {
				panic(err)
			}
			return map[model.NodeID]sim.Process{0: adversary.NewEquivocatingSenderFaces(c.Config(), signer, []byte("a"), []byte("b"), model.NewNodeSet(0, 1, 2))}
		}),
		mk("split-disseminator", 7, 2, []byte("v"), func(c *core.Cluster, _ int64) map[model.NodeID]sim.Process {
			return map[model.NodeID]sim.Process{2: adversary.Wrap(chainNodeFor(c, 2),
				adversary.DropTo(model.NewNodeSet(4, 5)))}
		}),
		mk("colluding-pair", 6, 2, []byte("v"), func(c *core.Cluster, _ int64) map[model.NodeID]sim.Process {
			signer0, err := c.Signer(0)
			if err != nil {
				panic(err)
			}
			return map[model.NodeID]sim.Process{
				0: sim.Silent{},
				2: adversary.NewResignRelay(c.Config(), 2, signer0, []byte("forged")),
			}
		}),
	}
}

// E6E7Properties runs the adversarial matrix and checks F1–F3 plus the
// Theorem 4 dichotomy (consistent assignment or discovery) on every run.
func E6E7Properties(runs int) *metrics.Table {
	tbl := metrics.NewTable(
		"E6/E7 — Theorem 4 and F1–F3 under chain-protocol attacks (local authentication)",
		"attack", "runs", "F1 viol", "F2 viol", "F3 viol", "runs w/ discovery")
	for _, atk := range fdAttacks() {
		var f1, f2, f3, disc int
		for r := 0; r < runs; r++ {
			seed := Seed + int64(1000+r)
			c := mustCluster(atk.n, atk.t, seed)
			faulty := model.NewNodeSet()
			var opts []core.RunOption
			for id, p := range atk.build(c, seed) {
				opts = append(opts, core.WithProcess(id, p))
				faulty.Add(id)
			}
			rep, err := c.RunFailureDiscovery(atk.value, opts...)
			if err != nil {
				panic(err)
			}
			if core.CheckF1(rep.Outcomes, faulty) != nil {
				f1++
			}
			if core.CheckF2(rep.Outcomes, faulty) != nil {
				f2++
			}
			if core.CheckF3(rep.Outcomes, faulty, fd.Sender, atk.value) != nil {
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

		// OM(t): measure relayed entries.
		entries := new(atomic.Int64)
		procs := make([]sim.Process, tc.N)
		for i := 0; i < tc.N; i++ {
			opts := []ba.EIGOption{ba.WithEntryCounter(entries)}
			if model.NodeID(i) == ba.Sender {
				opts = append(opts, ba.WithEIGValue([]byte("v")))
			}
			n, err := ba.NewEIGNode(cfg, model.NodeID(i), opts...)
			if err != nil {
				panic(err)
			}
			procs[i] = n
		}
		eng, err := sim.New(cfg, procs)
		if err != nil {
			panic(err)
		}
		eng.Run(ba.EIGEngineRounds(tc.T))

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

	var smViol, smSilent, smDisc int
	var fdViol, fdSilent, fdDisc int
	for r := 0; r < runs; r++ {
		seed := Seed + int64(1100+r)
		mixed, err := adversary.NewMixedPredicateNode(cfg, 0, scheme, sim.SeededReader(seed), model.NewNodeSet(1))
		if err != nil {
			panic(err)
		}
		signers, dirs := localAuthWith(cfg, seed, map[model.NodeID]sim.Process{0: mixed})

		// SM(t) run with the equivocating mixed-key sender.
		smNodes := make([]*ba.SMNode, cfg.N)
		procs := make([]sim.Process, cfg.N)
		for i := 1; i < cfg.N; i++ {
			node, err := ba.NewSMNode(cfg, model.NodeID(i), signers[i], dirs[i])
			if err != nil {
				panic(err)
			}
			smNodes[i] = node
			procs[i] = node
		}
		procs[0] = mixedSMSender(mixed, cfg, []byte("v"), []byte("u"))
		eng, err := sim.New(cfg, procs)
		if err != nil {
			panic(err)
		}
		eng.Run(ba.SMEngineRounds(cfg.T))
		if !bytes.Equal(smNodes[1].Decision().Value, smNodes[2].Decision().Value) {
			smViol++
			smSilent++ // SM has no discovery notion at all
		}

		// Chain FD run with the same attack shape.
		fdNodes := make([]*fd.ChainNode, cfg.N)
		procs = make([]sim.Process, cfg.N)
		for i := 1; i < cfg.N; i++ {
			node, err := fd.NewChainNode(cfg, model.NodeID(i), signers[i], dirs[i])
			if err != nil {
				panic(err)
			}
			fdNodes[i] = node
			procs[i] = node
		}
		procs[0] = mixedChainSender(mixed, []byte("v"))
		eng, err = sim.New(cfg, procs)
		if err != nil {
			panic(err)
		}
		eng.Run(fd.ChainEngineRounds(cfg.T))

		discovered := false
		var outcomes []model.Outcome
		for i := 1; i < cfg.N; i++ {
			o := fdNodes[i].Outcome()
			outcomes = append(outcomes, o)
			if o.Discovery != nil {
				discovered = true
			}
		}
		if discovered {
			fdDisc++
		}
		if core.CheckF2(outcomes, model.NewNodeSet(0)) != nil {
			fdViol++
			if !discovered {
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

// localAuthWith runs key distribution with overrides and returns signers
// and directories (nil entries for overridden slots).
func localAuthWith(cfg model.Config, seed int64, overrides map[model.NodeID]sim.Process) ([]sig.Signer, []sig.Directory) {
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		panic(err)
	}
	procs := make([]sim.Process, cfg.N)
	nodes := make([]*keydist.Node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		id := model.NodeID(i)
		if p, ok := overrides[id]; ok {
			procs[i] = p
			continue
		}
		n, err := keydist.NewNode(cfg, id, scheme, sim.SeededReader(sim.NodeSeed(seed, i)))
		if err != nil {
			panic(err)
		}
		nodes[i] = n
		procs[i] = n
	}
	eng, err := sim.New(cfg, procs)
	if err != nil {
		panic(err)
	}
	eng.Run(keydist.RoundsTotal)
	signers := make([]sig.Signer, cfg.N)
	dirs := make([]sig.Directory, cfg.N)
	for i, n := range nodes {
		if n == nil {
			continue
		}
		signers[i] = n.Signer()
		dirs[i] = n.Directory()
	}
	return signers, dirs
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

// Package experiments regenerates every quantitative claim of the paper
// (and the beyond-paper probes) as tables: cmd/fdbench renders them, the
// root bench_test.go wraps them in testing.B, and the tests in this
// package pin the expected shapes. The index (fdbench -e ID):
//
//	E1    key distribution costs 3n(n−1) messages in 3 rounds
//	E2    authenticated chain FD costs n−1 messages
//	E3    the non-authenticated baseline costs (t+1)(n−1)
//	E4    amortization: setup once, then O(n) a run beats O(n·t); formula and measured
//	E5    Theorem 2: G1 and G2 hold under every key-distribution attack
//	E6/7  Theorem 4 and F1–F3 under chain-protocol attacks
//	E8    cost context: OM(t) entries, SM(t) and FDBA messages, rounds per protocol
//	E9    small-value-range variant: its savings and its split-attack gap
//	E10   signature-scheme cost; bytes on the wire per protocol
//	E11   §6: a G3 attacker splits SM(t) silently, chain FD discovers it
//	E12   vector FD: n simultaneous senders in n(n−1) messages
//	E13   adversary strategy × protocol driver conformance grid
package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Seed is the deterministic base seed for all experiments, so every table
// reproduces bit-for-bit.
const Seed int64 = 19950530 // ICDCS 1995 vintage

// DefaultSizes is the n-sweep used by the message-count experiments.
var DefaultSizes = []int{4, 8, 16, 32, 64, 128}

// tolFor is the default fault bound: the classical t = ⌊(n−1)/3⌋, the
// "constant portion of the nodes" regime in which the paper's O(n·t)
// becomes O(n²).
func tolFor(n int) int { return (n - 1) / 3 }

// mustCluster builds an established cluster — setupFaults say which nodes
// are faulty in key distribution, if any — or panics (experiments are
// deterministic; failure is a programming error).
func mustCluster(n, t int, seed int64, setupFaults ...core.RunOption) *core.Cluster {
	c, err := core.New(model.Config{N: n, T: t}, core.WithSeed(seed))
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	if _, err := c.EstablishAuthentication(setupFaults...); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return c
}

// E1KeyDistribution measures the key-distribution protocol against the
// paper's 3n(n−1) messages / 3 communication rounds.
func E1KeyDistribution(sizes []int) *metrics.Table {
	tbl := metrics.NewTable(
		"E1 — Key distribution cost (paper §3.1: 3n(n−1) messages, 3 rounds)",
		"n", "messages", "paper 3n(n-1)", "match", "comm rounds", "bytes")
	for _, n := range sizes {
		c, err := core.New(model.Config{N: n, T: tolFor(n)}, core.WithSeed(Seed+int64(n)))
		if err != nil {
			panic(err)
		}
		rep, err := c.EstablishAuthentication()
		if err != nil {
			panic(err)
		}
		want := keydist.ExpectedMessages(n)
		tbl.AddRow(n, rep.Snapshot.Messages, want,
			rep.Snapshot.Messages == want,
			rep.Snapshot.CommunicationRounds, rep.Snapshot.Bytes)
	}
	return tbl
}

// E2AuthenticatedFD measures the chain protocol (paper Fig. 2) against the
// minimal n−1 messages. It is one of the two tables ported onto the
// campaign engine: the n-sweep is a declarative Spec, and the rows come
// from the campaign's per-group aggregates (one seeded instance per
// group, so the means are the exact run values).
func E2AuthenticatedFD(sizes []int) *metrics.Table {
	tbl := metrics.NewTable(
		"E2 — Authenticated failure discovery (paper Fig. 2: n−1 messages)",
		"n", "t", "messages", "paper n-1", "match", "comm rounds", "bytes")
	rep, err := campaign.Run(campaign.Spec{
		Name:      "e2-authenticated-fd",
		Protocols: []string{campaign.ProtoChain},
		Sizes:     sizes, // classical t = ⌊(n−1)/3⌋ per size
		SeedBase:  Seed,
		SeedCount: 1,
	}, 0)
	if err != nil {
		panic(fmt.Sprintf("experiments: e2 campaign: %v", err))
	}
	for _, g := range mustCleanGroups(rep) {
		msgs := int(g.Messages.Mean)
		tbl.AddRow(g.N, g.T, msgs, g.N-1, msgs == g.N-1,
			int(g.CommRounds.Mean), int(g.Bytes.Mean))
	}
	return tbl
}

// E3NonAuthFD measures the non-authenticated baseline against (t+1)(n−1),
// ported onto the campaign engine with an explicit (n, t) case list.
func E3NonAuthFD(sizes []int) *metrics.Table {
	tbl := metrics.NewTable(
		"E3 — Non-authenticated baseline (paper: O(n·t) messages)",
		"n", "t", "messages", "(t+1)(n-1)", "match", "ratio vs authenticated")
	var cases []campaign.Case
	seen := make(map[campaign.Case]bool)
	for _, n := range sizes {
		for _, t := range []int{1, n / 8, tolFor(n)} {
			c := campaign.Case{N: n, T: t}
			if t < 1 || t >= n || seen[c] {
				continue
			}
			seen[c] = true
			cases = append(cases, c)
		}
	}
	rep, err := campaign.Run(campaign.Spec{
		Name:      "e3-nonauth-fd",
		Protocols: []string{campaign.ProtoNonAuth},
		Cases:     cases,
		SeedBase:  Seed,
		SeedCount: 1,
	}, 0)
	if err != nil {
		panic(fmt.Sprintf("experiments: e3 campaign: %v", err))
	}
	for _, g := range mustCleanGroups(rep) {
		msgs := int(g.Messages.Mean)
		want := fd.NonAuthMessages(g.N, g.T)
		tbl.AddRow(g.N, g.T, msgs, want, msgs == want,
			float64(msgs)/float64(g.N-1))
	}
	return tbl
}

// mustCleanGroups returns the report's groups after asserting no
// instance errored (experiments are deterministic; an error is a
// programming mistake, not a measurement).
func mustCleanGroups(rep *campaign.Report) []campaign.GroupSummary {
	for _, g := range rep.Groups {
		if g.Errors > 0 {
			panic(fmt.Sprintf("experiments: campaign group %s had %d errors", g.Key, g.Errors))
		}
	}
	return rep.Groups
}

// E4Amortization reproduces the paper's headline: one 3n(n−1) key
// distribution plus k×(n−1) authenticated runs, versus k×(t+1)(n−1)
// non-authenticated runs, with the measured crossover.
func E4Amortization(sizes []int, ks []int) *metrics.Table {
	tbl := metrics.NewTable(
		"E4 — Amortization (paper abstract: keydist once, then O(n) per run beats O(n·t))",
		"n", "t", "runs k", "local-auth total", "non-auth total", "local wins", "crossover k*")
	for _, n := range sizes {
		t := tolFor(n)
		if t < 1 {
			continue
		}
		for _, k := range ks {
			a := core.AmortizationFor(n, t, k)
			tbl.AddRow(n, t, k, a.LocalAuthTotal, a.NonAuthTotal,
				a.LocalAuthTotal <= a.NonAuthTotal, a.CrossoverRun)
		}
	}
	return tbl
}

// E4Measured validates the E4 formulas with real measured runs at one
// configuration (slow at large n, so a single point).
func E4Measured(n, t, k int) *metrics.Table {
	tbl := metrics.NewTable(
		fmt.Sprintf("E4b — Amortization, measured (n=%d t=%d)", n, t),
		"runs k", "local-auth measured", "non-auth measured", "formula local", "formula non-auth")
	local := mustCluster(n, t, Seed+41)
	base, err := core.New(model.Config{N: n, T: t}, core.WithSeed(Seed+42))
	if err != nil {
		panic(err)
	}
	for run := 1; run <= k; run++ {
		if _, err := local.RunFailureDiscovery([]byte("v")); err != nil {
			panic(err)
		}
		if _, err := base.RunFailureDiscovery([]byte("v"), core.WithProtocol(core.ProtocolNonAuth)); err != nil {
			panic(err)
		}
		a := core.AmortizationFor(n, t, run)
		tbl.AddRow(run, local.Ledger().TotalMessages(), base.Ledger().TotalMessages(),
			a.LocalAuthTotal, a.NonAuthTotal)
	}
	return tbl
}

// E5Theorem2 exercises the key-distribution guarantees G1/G2 under every
// key-distribution adversary, over `runs` seeded repetitions each.
func E5Theorem2(runs int) *metrics.Table {
	tbl := metrics.NewTable(
		"E5 — Theorem 2: G1 and G2 hold under local authentication",
		"attack", "runs", "G1 violations", "G2 violations")
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		panic(err)
	}
	cfg := model.Config{N: 6, T: 2}
	// victim is the predicate P1 presents under seed, for the attackers
	// that claim it: public, and — key material being a pure function of
	// the seed — read off an honest establishment of the same cluster.
	victim := func(seed int64) sig.TestPredicate {
		return mustCluster(cfg.N, cfg.T, seed).Nodes()[1].Signer().Predicate()
	}
	attacks := []struct {
		name  string
		build func(seed int64) []core.RunOption
	}{
		{"foreign-claim", func(seed int64) []core.RunOption {
			return []core.RunOption{core.WithProcess(5, adversary.NewForeignClaimNode(cfg, 5, victim(seed)))}
		}},
		{"challenge-relay", func(seed int64) []core.RunOption {
			return []core.RunOption{core.WithProcess(5, adversary.NewChallengeRelayNode(cfg, 5, 1, victim(seed)))}
		}},
		{"mixed-predicate", func(seed int64) []core.RunOption {
			m, err := adversary.NewMixedPredicateNode(cfg, 5, scheme, sim.SeededReader(seed+7), model.NewNodeSet(0, 1))
			if err != nil {
				panic(err)
			}
			return []core.RunOption{core.WithProcess(5, m)}
		}},
		{"shared-key", func(seed int64) []core.RunOption {
			g, err := adversary.NewSharedKeyGroup(cfg, scheme, sim.SeededReader(seed+7), 4, 5)
			if err != nil {
				panic(err)
			}
			return []core.RunOption{core.WithProcess(4, g[0]), core.WithProcess(5, g[1])}
		}},
		{"silent", func(int64) []core.RunOption {
			return []core.RunOption{core.WithProcess(5, sim.Silent{})}
		}},
	}
	for _, atk := range attacks {
		g1viol, g2viol := 0, 0
		for r := 0; r < runs; r++ {
			seed := Seed + int64(r*100)
			nodes := mustCluster(cfg.N, cfg.T, seed, atk.build(seed)...).Nodes()
			if core.CheckG1(nodes) != nil {
				g1viol++
			}
			if core.CheckG2(nodes) != nil {
				g2viol++
			}
		}
		tbl.AddRow(atk.name, runs, g1viol, g2viol)
	}
	return tbl
}

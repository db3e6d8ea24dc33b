// Package experiments regenerates every quantitative claim of the paper
// (and the beyond-paper probes) as tables: cmd/fdbench renders them, the
// root bench_test.go wraps them in testing.B, and the tests in this
// package pin the expected shapes. The index (fdbench -e ID):
//
//	E1    key distribution costs 3n(n−1) messages in 3 rounds
//	E2    authenticated chain FD costs n−1 messages
//	E3    the non-authenticated baseline costs (t+1)(n−1)
//	E4    amortization: setup once, then O(n) a run beats O(n·t); formula and measured
//	E5    Theorem 2: G1 and G2 under every key-distribution attack: a campaign spec per key set
//	E6/7  Theorem 4 and F1–F3 under chain-protocol attacks: one campaign spec
//	E8    cost context: OM(t) entries, SM(t) and FDBA messages, rounds per protocol
//	E9    small-value-range variant: its savings and its split-attack gap
//	E10   signature-scheme cost; bytes on the wire per protocol
//	E11   §6: a two-keyed sender splits SM(t), chain FD discovers it: a campaign spec per key set
//	E12   vector FD: n simultaneous senders in n(n−1) messages
//	E13   adversary strategy × protocol driver conformance grid
//
// Formula columns print what each driver declares failure-free
// (protocol.VerdictProfile.FailureFree).
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - E10Schemes, All: fdbench's timed scheme table and its every-table run; timings have no golden.
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/protocol"
)

// Seed is the deterministic base seed for all experiments, so every table
// reproduces bit-for-bit.
const Seed int64 = 19950530 // ICDCS 1995 vintage

// DefaultSizes is the n-sweep used by the message-count experiments.
var DefaultSizes = []int{4, 8, 16, 32, 64, 128}

// failureFree returns the failure-free cost proto's driver declares.
func failureFree(proto string, n, t int) (messages, commRounds int) {
	d, err := protocol.Lookup(proto)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return d.Verdicts().FailureFree(protocol.Instance{N: n, T: t})
}

// mustCluster builds an established cluster or panics (experiments are
// deterministic; failure is a programming error).
func mustCluster(n, t int, seed int64) *core.Cluster {
	c, err := core.New(model.Config{N: n, T: t}, core.WithSeed(seed))
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	if _, err := c.EstablishAuthentication(); err != nil {
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
		c, err := core.New(model.Config{N: n, T: campaign.ClassicTol(n)}, core.WithSeed(Seed+int64(n)))
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
	rep := mustRun(campaign.Spec{
		Name:      "e2-authenticated-fd",
		Protocols: []string{campaign.ProtoChain},
		Sizes:     sizes, // classical t = ⌊(n−1)/3⌋ per size
		SeedBase:  Seed,
		SeedCount: 1,
	})
	for _, g := range rep.Groups {
		msgs := int(g.Messages.Mean)
		want, _ := failureFree(campaign.ProtoChain, g.N, g.T)
		tbl.AddRow(g.N, g.T, msgs, want, msgs == want,
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
		for _, t := range []int{1, n / 8, campaign.ClassicTol(n)} {
			c := campaign.Case{N: n, T: t}
			if t < 1 || t >= n || seen[c] {
				continue
			}
			seen[c] = true
			cases = append(cases, c)
		}
	}
	rep := mustRun(campaign.Spec{
		Name:      "e3-nonauth-fd",
		Protocols: []string{campaign.ProtoNonAuth},
		Cases:     cases,
		SeedBase:  Seed,
		SeedCount: 1,
	})
	for _, g := range rep.Groups {
		msgs := int(g.Messages.Mean)
		want, _ := failureFree(campaign.ProtoNonAuth, g.N, g.T)
		tbl.AddRow(g.N, g.T, msgs, want, msgs == want,
			float64(msgs)/float64(g.N-1))
	}
	return tbl
}

// mustRun runs a campaign spec on every core and returns its report,
// panicking on an error or an errored instance (experiments are
// deterministic; either is a programming mistake, not a measurement).
func mustRun(spec campaign.Spec) *campaign.Report {
	rep, err := campaign.Run(spec, 0)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s campaign: %v", spec.Name, err))
	}
	for _, g := range rep.Groups {
		if g.Errors > 0 {
			panic(fmt.Sprintf("experiments: campaign group %s had %d errors", g.Key, g.Errors))
		}
	}
	return rep
}

// mustInstance runs one campaign instance through its driver and
// returns its result, panicking if it errored.
func mustInstance(inst campaign.Instance) campaign.Result {
	res := campaign.RunInstance(inst)
	if res.Err != "" {
		panic(fmt.Sprintf("experiments: %s: %s", inst.Protocol, res.Err))
	}
	return res
}

// mustRunKeySets runs spec once per run r over its own key set and
// handshake — one seed, SeedBase and so KeySeed seed(r) — and returns
// each group's results across the runs, in group order: the form of the
// tables whose subject is the setup itself.
func mustRunKeySets(spec campaign.Spec, runs int, seed func(r int) int64) (groups []campaign.GroupSummary, results [][]campaign.Result) {
	spec.SeedCount = 1
	for r := 0; r < runs; r++ {
		spec.SeedBase = seed(r)
		rep := mustRun(spec)
		if r == 0 {
			groups, results = rep.Groups, make([][]campaign.Result, len(rep.Groups))
		}
		for i, res := range rep.Results { // one seed: result i is group i's
			results[i] = append(results[i], res)
		}
	}
	return groups, results
}

// countRuns counts the results that meet pred.
func countRuns(results []campaign.Result, pred func(campaign.Result) bool) int {
	n := 0
	for _, r := range results {
		if pred(r) {
			n++
		}
	}
	return n
}

// amortize is E4's comparison after k runs at (n, t): keydist plus k chain
// runs against k baseline runs, and the smallest k at which local ≤
// nonAuth (0 if none).
func amortize(n, t, k int) (local, nonAuth, crossover int) {
	chain, _ := failureFree(campaign.ProtoChain, n, t)
	base, _ := failureFree(campaign.ProtoNonAuth, n, t)
	setup := keydist.ExpectedMessages(n)
	if saving := base - chain; saving > 0 {
		crossover = (setup + saving - 1) / saving
	}
	return setup + k*chain, k * base, crossover
}

// E4Amortization reproduces the paper's headline: one 3n(n−1) key
// distribution plus k×(n−1) authenticated runs, versus k×(t+1)(n−1)
// non-authenticated runs, with the measured crossover.
func E4Amortization(sizes []int, ks []int) *metrics.Table {
	tbl := metrics.NewTable(
		"E4 — Amortization (paper abstract: keydist once, then O(n) per run beats O(n·t))",
		"n", "t", "runs k", "local-auth total", "non-auth total", "local wins", "crossover k*")
	for _, n := range sizes {
		t := campaign.ClassicTol(n)
		for _, k := range ks {
			local, nonAuth, crossover := amortize(n, t, k)
			tbl.AddRow(n, t, k, local, nonAuth, local <= nonAuth, crossover)
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
	nonAuth := 0
	for run := 1; run <= k; run++ {
		if _, err := local.RunFailureDiscovery([]byte("v")); err != nil {
			panic(err)
		}
		nonAuth += mustInstance(campaign.Instance{Protocol: campaign.ProtoNonAuth, N: n, T: t}).Messages
		formulaLocal, formulaNonAuth, _ := amortize(n, t, run)
		tbl.AddRow(run, local.Ledger().TotalMessages(), nonAuth, formulaLocal, formulaNonAuth)
	}
	return tbl
}

// E5Theorem2 sweeps the chain protocol at (n, t) = (6, 2) over every
// key-distribution attack, runs key sets each, and counts the runs whose
// post-setup directories break G1 or G2.
func E5Theorem2(runs int) *metrics.Table {
	groups, results := mustRunKeySets(campaign.Spec{
		Name:      "E5",
		Protocols: []string{campaign.ProtoChain},
		Cases:     []campaign.Case{{N: 6, T: 2}},
		Adversaries: []string{
			"nodes=5:name=foreign-claim,setup=foreign-claim",
			"nodes=5:name=challenge-relay,setup=relay-challenge",
			"nodes=5:name=mixed-predicate,setup=equivocate-keys",
			"nodes=4+5:name=shared-key,setup=shared-key",
			"nodes=5:name=silent,setup=silent",
		},
	}, runs, func(r int) int64 { return Seed + int64(r*100) })
	tbl := metrics.NewTable(
		"E5 — Theorem 2: G1 and G2 hold under local authentication",
		"attack", "runs", "G1 violations", "G2 violations")
	for i, g := range groups {
		tbl.AddRow(g.Adversary, len(results[i]),
			countRuns(results[i], func(r campaign.Result) bool { return slices.Contains(r.Conformance.Violations, "G1") }),
			countRuns(results[i], func(r campaign.Result) bool { return slices.Contains(r.Conformance.Violations, "G2") }))
	}
	return tbl
}

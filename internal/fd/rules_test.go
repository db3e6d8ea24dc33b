package fd_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sig"
	"repro/internal/sim"
)

// mutantDriver is the chain driver with every node built by node, a
// mutant of the correct chain node: registered under a test- name, it
// joins campaign sweeps and their conformance scoring like any driver.
type mutantDriver struct {
	name string
	node func(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, opts ...fd.ChainOption) (sim.Process, error)
}

func (d mutantDriver) Name() string { return d.name }

func (mutantDriver) Capabilities() protocol.Capabilities {
	return protocol.Capabilities{UsesSignatures: true}
}

// Verdicts is the chain driver's, its failure-free cost included: a
// mutant is held to what the correct protocol declares.
func (mutantDriver) Verdicts() protocol.VerdictProfile {
	chain, err := protocol.Lookup(protocol.NameChain)
	if err != nil {
		panic(err)
	}
	return chain.Verdicts()
}

func (d mutantDriver) Run(inst protocol.Instance, c *core.Cluster) (protocol.Outcome, error) {
	value := []byte("value") // the chain driver's proposal
	rounds := fd.ChainEngineRounds(inst.T)
	rep, honest, err := protocol.RunNodes(inst, c, d.name, rounds, func(id model.NodeID) (sim.Process, error) {
		signer, err := c.Signer(id)
		if err != nil {
			return nil, err
		}
		dir, err := c.Directory(id)
		if err != nil {
			return nil, err
		}
		var opts []fd.ChainOption
		if id == fd.Sender {
			opts = append(opts, fd.WithValue(value))
		}
		return d.node(inst.Config(), id, signer, dir, opts...)
	})
	if err != nil {
		return protocol.Outcome{}, err
	}
	var outcomes []model.Outcome
	agreed, discovered := true, false
	for _, p := range honest {
		if p != nil {
			o := p.(fd.Outcomer).Outcome()
			outcomes = append(outcomes, o)
			agreed = agreed && o.Decided && bytes.Equal(o.Value, outcomes[0].Value)
			discovered = discovered || o.Discovery != nil
		}
	}
	return protocol.Outcome{
		Rounds:     rep.Rounds,
		RoundBound: rounds,
		Snapshot:   rep.Snapshot,
		Agreed:     agreed,
		Discovered: discovered,
		SubRuns:    []protocol.SubRun{{Sender: fd.Sender, Initial: value, Outcomes: outcomes}},
	}, nil
}

const (
	noVerifyDriver   = "test-noverify-chain"
	twiceRelayDriver = "test-twice-relay-chain"
)

func init() {
	protocol.Register(mutantDriver{name: noVerifyDriver, node: fd.NewNoVerifyChainNode})
	protocol.Register(mutantDriver{name: twiceRelayDriver, node: fd.NewTwiceRelayChainNode})
}

// TestEveryRuleHasAKiller holds each rule the paper states to a campaign
// strategy that kills a node without it: under the killer, every run of
// the mutant (the correct node with that one rule removed, built in a
// test file only) must record an unexcused predicate violation, and no
// run of the chain driver may. A rule no strategy kills is a rule no
// campaign shows necessary.
func TestEveryRuleHasAKiller(t *testing.T) {
	rows := []struct {
		rule, mutant string
		// killer is the strategy that must kill the mutant; survivor is
		// one that does not, kept so the table says so.
		killer, survivor string
		predicates       []string
	}{
		{
			rule:   "Fig. 2: check the signatures of the message and the submessages",
			mutant: noVerifyDriver,
			// P_1 stays silent and in its round sends P_2 a chain of
			// "forged" it signed alone: only the signatures are wrong.
			killer: "relay:behavior=resign",
			// P_1 re-signs the sender's chain naming P_2 as its
			// assignee: the mutant relays the sender's own value, so
			// every node still decides it.
			survivor:   "relay:behavior=wrong-name",
			predicates: []string{campaign.PredAgreement, campaign.PredValidity},
		},
		{
			rule:   "Fig. 2: a relay sends its chain once",
			mutant: twiceRelayDriver,
			// P_2 discovers the second copy, so every predicate holds;
			// only the count, n−1, tells the run from a correct one.
			killer: campaign.AdvNone,
			// A faulty run is not held to the failure-free count.
			survivor:   "relay:behavior=crash",
			predicates: []string{campaign.PredComplexity},
		},
	}
	for _, row := range rows {
		rep, err := campaign.Run(campaign.Spec{
			Name:        "rules",
			Protocols:   []string{protocol.NameChain, row.mutant},
			Cases:       []campaign.Case{{N: 6, T: 2}},
			Adversaries: []string{row.killer, row.survivor},
			SeedBase:    1000,
			SeedCount:   3,
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Groups) != 4 {
			t.Fatalf("%s: %d groups, want 4", row.rule, len(rep.Groups))
		}
		killer, err := campaign.ParseAdversary(row.killer)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range rep.Groups {
			switch {
			case g.Errors > 0:
				t.Fatalf("%s: %s: %d instances errored", row.rule, g.Key, g.Errors)
			case g.Protocol != row.mutant:
				if g.Conformant != g.Instances {
					t.Errorf("%s: the correct node violates %v under %s", row.rule, g.Violations, g.Adversary)
				}
			case g.Adversary == killer.Name:
				if g.Conformant != 0 || len(g.Violations) == 0 ||
					slices.ContainsFunc(g.Violations, func(v string) bool { return !slices.Contains(row.predicates, v) }) {
					t.Errorf("%s: the mutant survives %s: %d/%d runs conformant, violations %v, want %v on every run",
						row.rule, row.killer, g.Conformant, g.Instances, g.Violations, row.predicates)
				}
			case g.Conformant != g.Instances:
				t.Errorf("%s: %s now kills the mutant (%v): make it a killer", row.rule, row.survivor, g.Violations)
			}
		}
	}
}

// TestComplexityScoresHonestIdealRunsOnly: the relay that forwards twice
// overspends Fig. 2's n−1 in every run, but only the runs with no faulty
// node on the ideal network are held to the count — not a faulty relay,
// a churned node or a delaying link.
func TestComplexityScoresHonestIdealRunsOnly(t *testing.T) {
	rep, err := campaign.Run(campaign.Spec{
		Name:        "complexity",
		Protocols:   []string{twiceRelayDriver},
		Cases:       []campaign.Case{{N: 6, T: 2}},
		Adversaries: []string{campaign.AdvNone, "relay:behavior=crash"},
		NetConds:    []string{"ideal", "churn=5@2-4", "latency=uniform-0-2"},
		SeedBase:    1000,
		SeedCount:   2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 6 {
		t.Fatalf("%d groups, want 6", len(rep.Groups))
	}
	for _, g := range rep.Groups {
		want := g.Adversary == campaign.AdvNone && g.NetCond == ""
		if got := slices.Contains(g.Violations, campaign.PredComplexity); got != want || g.Errors > 0 {
			t.Errorf("%s: violations %v (%d errors), complexity scored %v, want %v", g.Key, g.Violations, g.Errors, got, want)
		}
	}
}

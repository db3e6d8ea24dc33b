package fd_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestEveryRuleHasAKiller holds each rule the paper states to an attack
// that kills a node without it: the mutant (the correct node with that
// one rule removed, built in a test file only) must violate a predicate
// on every run where the correct node violates none. A rule no attack
// kills is a rule no table shows necessary.
func TestEveryRuleHasAKiller(t *testing.T) {
	type attack struct {
		name   string
		n, t   int
		faulty model.NodeSet
		opts   func(c *core.Cluster) []core.RunOption
	}
	// resignRelay is E6/E7's resign-relay: P_1 stays silent and in its
	// round sends P_2 a chain of "forged" it signed alone.
	resignRelay := attack{"resign-relay", 6, 2, model.NewNodeSet(1), func(c *core.Cluster) []core.RunOption {
		return []core.RunOption{core.WithWrappedProcess(1, adversary.Resign(c.Config(), 1, c.Nodes()[1].Signer(), []byte("forged")))}
	}}
	// Predicates over the correct nodes' outcomes of a run whose sender
	// proposed value.
	f2 := func(out []model.Outcome, faulty model.NodeSet, _ []byte) error { return core.CheckF2(out, faulty) }
	f3 := func(out []model.Outcome, faulty model.NodeSet, value []byte) error {
		return core.CheckF3(out, faulty, fd.Sender, value)
	}
	type predicate struct {
		name  string
		check func(out []model.Outcome, faulty model.NodeSet, value []byte) error
	}
	rows := []struct {
		rule       string
		mutant     func(c *core.Cluster, value []byte) core.NodeBuilder
		killer     attack
		predicates []predicate
	}{
		{
			rule: "Fig. 2: check the signatures of the message and the submessages",
			mutant: func(c *core.Cluster, value []byte) core.NodeBuilder {
				return func(id model.NodeID) (sim.Process, error) {
					var opts []fd.ChainOption
					if id == fd.Sender {
						opts = append(opts, fd.WithValue(value))
					}
					keys := c.Nodes()[id]
					return fd.NewNoVerifyChainNode(c.Config(), id, keys.Signer(), keys.Directory(), opts...)
				}
			},
			killer:     resignRelay,
			predicates: []predicate{{"F2", f2}, {"F3", f3}},
		},
	}
	value := []byte("v")
	for _, row := range rows {
		atk := row.killer
		for seed := int64(0); seed < 3; seed++ {
			c, err := core.New(model.Config{N: atk.n, T: atk.t}, core.WithSeed(1000+seed))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.EstablishAuthentication(); err != nil {
				t.Fatal(err)
			}
			correct, err := c.RunFailureDiscovery(value, atk.opts(c)...)
			if err != nil {
				t.Fatal(err)
			}
			_, honest, err := c.Run("mutant", fd.ChainEngineRounds(atk.t), row.mutant(c, value), atk.opts(c)...)
			if err != nil {
				t.Fatal(err)
			}
			var mutant []model.Outcome
			for _, p := range honest {
				if p != nil {
					mutant = append(mutant, p.(fd.Outcomer).Outcome())
				}
			}
			for _, pred := range row.predicates {
				if err := pred.check(correct.Outcomes, atk.faulty, value); err != nil {
					t.Errorf("%s, seed %d: the correct node violates %s under %s: %v", row.rule, seed, pred.name, atk.name, err)
				}
				if pred.check(mutant, atk.faulty, value) == nil {
					t.Errorf("%s, seed %d: the mutant survives %s: no %s violation", row.rule, seed, atk.name, pred.name)
				}
			}
		}
	}
}

// Byzantine: what the protocols do when nodes actually misbehave.
//
// Three hand-wired scenarios against an 8-node cluster tolerating t=2
// faults:
//
//  1. a relay goes silent mid-chain          → missing-message discovery
//  2. the sender equivocates                 → duplicate-message discovery
//  3. the key-distribution G3 attack (mixed
//     predicates) followed by a chain run    → Theorem 4 discovery
//
// all through two options, in either phase — key distribution
// (scenario 3) as much as a failure-discovery run: core.WithProcess
// replaces a node, core.WithWrappedProcess filters its correct process;
//
// then the same machinery driven declaratively: composable adversary
// strategies (seeded coalitions, delayed delivery, a relay that swaps in
// a chain it signed alone, behavior stacks) parsed from the campaign
// syntax and scored against the paper's conformance predicates.
//
// In every case the paper's weak properties hold: nodes either agree or
// somebody correct discovers a failure — never a silent split.
//
//	go run ./examples/byzantine
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/adversary"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

func main() {
	runScenario("silent relay P1", func(c *core.Cluster) []core.RunOption {
		return []core.RunOption{core.WithProcess(1, sim.Silent{})}
	})

	runScenario("equivocating sender P0", func(c *core.Cluster) []core.RunOption {
		// The correct sender of "yes", plus a second chain, of "no", to P1.
		signer, err := c.Signer(0)
		if err != nil {
			log.Fatal(err)
		}
		dir, err := c.Directory(0)
		if err != nil {
			log.Fatal(err)
		}
		sender, err := fd.NewChainNode(c.Config(), 0, signer, dir, fd.WithValue([]byte("yes")))
		if err != nil {
			log.Fatal(err)
		}
		second, err := sig.NewChain([]byte("no"), signer)
		if err != nil {
			log.Fatal(err)
		}
		return []core.RunOption{core.WithProcess(0, adversary.Wrap(sender,
			adversary.InjectAt(1, model.Message{To: 1, Kind: model.KindChainValue, Payload: second.Marshal()})))}
	})

	mixedPredicateScenario()
	strategyScenarios()
}

// strategyScenarios runs the declarative counterpart: each line is a
// composable strategy in the campaign's compact syntax, executed as an
// isolated campaign instance and judged by the conformance harness. The
// same 8-node, t=2 configuration; the seed drives the coalition draws.
func strategyScenarios() {
	fmt.Println("── composable strategies (campaign syntax + conformance verdicts) ──")
	for _, syntax := range []string{
		"coalition:size=2,behavior=crash,round=2",
		"coalition:size=1,behavior=delay,delay=2",
		"sender:behavior=equivocate,partition=even-odd",
		"relay:behavior=resign",
		"nodes=2:behavior=drop,victims=5+6,behavior=duplicate,victims=1",
	} {
		strat, err := campaign.ParseAdversary(syntax)
		if err != nil {
			log.Fatal(err)
		}
		inst := campaign.Instance{
			Protocol: campaign.ProtoChain, N: 8, T: 2,
			Scheme: sig.SchemeEd25519, Adversary: strat.Name, Strategy: strat,
			Seed: 7, KeySeed: 7,
		}
		res := campaign.RunInstance(inst)
		if res.Err != "" {
			log.Fatalf("%s: %s", syntax, res.Err)
		}
		v := res.Conformance
		verdict := "CONFORMANT"
		if !v.Conformant() {
			verdict = "VIOLATED " + strings.Join(v.Violations, ",")
		}
		fmt.Printf("  %-55s corrupt=%v agreed=%v discovered=%v → %s\n",
			strat.Name, strat.CorruptSet(inst.N, inst.Seed), res.Agreed, res.Discovered, verdict)
	}
	fmt.Println("  every strategy lands in the paper's dichotomy: agree, or somebody correct discovers")
}

// runScenario builds a fresh authenticated cluster, injects the fault,
// and reports every node's outcome plus the F1–F3 verdicts.
func runScenario(name string, faults func(*core.Cluster) []core.RunOption) {
	fmt.Printf("── scenario: %s ──\n", name)
	cluster, err := core.New(model.Config{N: 8, T: 2}, core.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.EstablishAuthentication(); err != nil {
		log.Fatal(err)
	}
	value := []byte("the true value")
	opts := faults(cluster)
	rep, err := cluster.RunFailureDiscovery(value, opts...)
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		fmt.Printf("  %s\n", o)
	}
	faulty := model.NewNodeSet()
	for _, o := range rep.Outcomes {
		_ = o
	}
	// The injected IDs are known per scenario; for the report we infer
	// nothing and just show the property verdicts against node 1/0 as
	// injected above — simplest to re-check all three with the worst case
	// assumption that the overridden node was faulty.
	switch name {
	case "silent relay P1":
		faulty.Add(1)
	case "equivocating sender P0":
		faulty.Add(0)
	}
	fmt.Printf("  F1=%v F2=%v F3=%v discoveries=%d\n\n",
		core.CheckF1(rep.Outcomes, faulty) == nil,
		core.CheckF2(rep.Outcomes, faulty) == nil,
		core.CheckF3(rep.Outcomes, faulty, fd.Sender, value) == nil,
		len(rep.Discoveries))
}

// mixedPredicateScenario shows the paper's G3 gap end-to-end: key
// distribution cannot detect a node handing different public keys to
// different peers, but the chain protocol discovers the split the moment
// the forked key is USED.
func mixedPredicateScenario() {
	fmt.Println("── scenario: mixed-predicate sender (G3 attack) ──")
	cfg := model.Config{N: 8, T: 2}
	cluster, err := core.New(cfg, core.WithSeed(9))
	if err != nil {
		log.Fatal(err)
	}
	faces, err := adversary.NewKeyFaces(cluster.Scheme(), sim.SeededReader(99), model.NewNodeSet(1, 2))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.EstablishAuthentication(core.WithWrappedProcess(0, faces.Wrap)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  key distribution completed — the G3 split is invisible so far")

	// The correct sender, signing with the key P1 accepted; it reads no
	// directory.
	sender, err := fd.NewChainNode(cfg, fd.Sender, faces.SignerFor(1), sig.MapDirectory{}, fd.WithValue([]byte("v")))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := cluster.RunFailureDiscovery(nil, core.WithProcess(0, sender))
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		fmt.Printf("  %s\n", o)
	}
	fmt.Printf("  the forked key was discovered the moment it was used (%d discoveries)\n",
		len(rep.Discoveries))
}

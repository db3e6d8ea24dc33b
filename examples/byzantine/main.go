// Byzantine: what the protocols do when nodes actually misbehave.
//
// Each line below is an adversary strategy in the campaign's compact
// syntax, run against an 8-node chain cluster tolerating t=2 faults and
// judged by the conformance harness against the paper's predicates:
//
//   - a relay goes silent mid-chain          → missing-message discovery
//   - the sender equivocates                 → duplicate-message discovery
//   - the sender shows two keys in key
//     distribution (the G3 attack, setup=)   → Theorem 4 discovery
//   - seeded coalitions, delayed delivery, a relay that swaps in a chain
//     it signed alone, behavior stacks
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

	"repro/internal/campaign"
	"repro/internal/sig"
)

func main() {
	fmt.Println("── adversary strategies (campaign syntax + conformance verdicts) ──")
	violated := 0
	for _, syntax := range []string{
		"relay:behavior=crash",
		"sender:behavior=equivocate",
		"sender:setup=equivocate-keys",
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
			violated++
		}
		fmt.Printf("  %-55s corrupt=%v agreed=%v discovered=%v → %s\n",
			strat.Name, strat.CorruptSet(inst.N, inst.Seed), res.Agreed, res.Discovered, verdict)
	}
	if violated > 0 {
		log.Fatalf("%d strategies left the paper's dichotomy", violated)
	}
	fmt.Println("  every strategy lands in the paper's dichotomy: agree, or somebody correct discovers")
}

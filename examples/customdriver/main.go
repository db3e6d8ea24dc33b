// Example customdriver shows the protocol driver registry as an
// extension API: a new agreement protocol, written in THIS file, joins
// the campaign grid — declarative sweeps, composable adversaries,
// worker-sharded determinism, and F1–F3 conformance scoring — by
// registering one protocol.Driver. Nothing inside internal/campaign
// knows it exists.
//
// The toy protocol is "flood consensus": the sender broadcasts its
// value in round 1, every receiver re-broadcasts what it first accepted
// in round 2, and everyone decides the majority of what they saw
// (their own accepted value included), defaulting when nothing arrived.
// It is deliberately naive — a two-faced sender splits it — which makes
// it a nice demonstration of the conformance harness catching a
// protocol that does NOT meet the paper's predicates, right next to the
// registered drivers that do.
//
// Run with: go run ./examples/customdriver
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// floodNode is one correct participant of the toy flood protocol.
type floodNode struct {
	id       model.NodeID
	cfg      model.Config
	value    []byte // sender only
	accepted []byte
	seen     [][]byte
	decided  []byte
	finished bool
}

func (f *floodNode) Step(round int, received []model.Message) []model.Message {
	for _, m := range received {
		if m.Kind != model.KindPlainValue {
			continue
		}
		if f.accepted == nil {
			f.accepted = m.Payload
		}
		f.seen = append(f.seen, m.Payload)
	}
	switch round {
	case 1:
		if f.id != 0 {
			return nil
		}
		f.accepted = f.value
		f.seen = append(f.seen, f.value)
		return model.AppendBroadcast(nil, f.cfg.N, f.id, model.KindPlainValue, f.value)
	case 2:
		if f.accepted == nil {
			return nil
		}
		return model.AppendBroadcast(nil, f.cfg.N, f.id, model.KindPlainValue, f.accepted)
	case 3:
		f.decided = majority(f.seen)
		f.finished = true
	}
	return nil
}

func (f *floodNode) Finished() bool { return f.finished }

// majority returns the most frequent value, or a default when the view
// is empty.
func majority(seen [][]byte) []byte {
	best, bestCount := []byte("\x00default"), 0
	counts := map[string]int{}
	for _, v := range seen {
		counts[string(v)]++
		if counts[string(v)] > bestCount {
			best, bestCount = v, counts[string(v)]
		}
	}
	return best
}

// floodDriver packages the protocol for the registry. Compare with the
// built-in drivers in internal/protocol: same shape, one file.
type floodDriver struct{}

func (floodDriver) Name() string { return "flood" }

// Capabilities: unsigned — no scheme axis, and a bare cluster with no
// keys to establish or cache — and no bespoke two-faced sender, so
// expansion skips equivocate mixes.
func (floodDriver) Capabilities() protocol.Capabilities {
	return protocol.Capabilities{}
}

// Verdicts: flood is unauthenticated, so the registry's canned
// below-resilience excusal is the honest reading of its failures. Its
// failure-free cost is declared too — the sender's broadcast, then every
// node's, sender included: n−1 + n(n−1) messages in 2 rounds — and every
// honest run on the ideal network is scored against it.
func (floodDriver) Verdicts() protocol.VerdictProfile {
	p := protocol.VerdictsUnauthenticatedFD
	p.FailureFree = func(inst protocol.Instance) (messages, commRounds int) {
		return (inst.N - 1) + inst.N*(inst.N-1), 2
	}
	return p
}

// Run hands protocol.RunNodes the one thing only this file knows — what
// a correct flood node is — and gets the whole strategy grammar and
// network axis wired for it: crashes, delays, tampering, churn, loss.
// It is the path every built-in driver takes too; none has another.
func (floodDriver) Run(inst protocol.Instance, c *core.Cluster) (protocol.Outcome, error) {
	value := []byte("value")
	rep, honest, err := protocol.RunNodes(inst, c, "flood", 3,
		func(id model.NodeID) (sim.Process, error) {
			return &floodNode{id: id, cfg: inst.Config(), value: value}, nil
		})
	if err != nil {
		return protocol.Outcome{}, err
	}
	outcomes := make([]model.Outcome, 0, inst.N)
	agreed := true
	for _, p := range honest {
		if p == nil {
			continue // faulty: no outcome owed
		}
		node := p.(*floodNode)
		outcomes = append(outcomes, model.Outcome{Node: node.id, Decided: node.decided != nil, Value: node.decided})
		agreed = agreed && bytes.Equal(node.decided, outcomes[0].Value)
	}
	return protocol.Outcome{
		Rounds:     rep.Rounds,
		RoundBound: 3,
		Snapshot:   rep.Snapshot,
		Agreed:     agreed,
		SubRuns:    []protocol.SubRun{{Sender: 0, Initial: value, Outcomes: outcomes}},
	}, nil
}

func main() {
	// One call: the protocol now exists everywhere the registry is
	// consulted — campaign specs, fdcampaign flags, conformance scoring.
	protocol.Register(floodDriver{})

	spec := campaign.Spec{
		Name:      "custom-driver-demo",
		Protocols: []string{"flood", campaign.ProtoChain},
		Sizes:     []int{4, 7},
		Adversaries: []string{
			campaign.AdvNone, campaign.AdvCrashSender, campaign.AdvCrashRelay,
			"coalition:size=1,behavior=delay,delay=1", // any strategy: RunNodes wires it
		},
		SeedBase:  7,
		SeedCount: 5,
	}
	report, err := campaign.Run(spec, 2)
	if err != nil {
		fmt.Fprintf(os.Stderr, "customdriver: %v\n", err)
		os.Exit(1)
	}
	report.Table().Render(os.Stdout)
	fmt.Println()
	fmt.Println("The flood rows were produced by the driver defined in this file;")
	fmt.Println("the chain rows by the built-in registry. Same sweep, same verdicts.")
}

package protocol

import (
	"bytes"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/sim"
)

// The one wiring path from an Instance to processes: the strategy and
// network condition compile to core run options, and core.Cluster's run
// loop decides silent / wrapped / churned / honest per node. The rules
// here are protocol-agnostic; the protocol-specific parts — what a
// correct node is, and a bespoke two-faced sender — come from the driver.

// senderValue is the sender's proposal in multi-byte-value protocols. It
// matches the value package experiments always sent, so campaign-ported
// tables (E2, E3) keep byte-for-byte continuity with the seed tree's
// wire traffic.
var senderValue = []byte("value")

// altSenderValue is the equivocating sender's second face.
var altSenderValue = []byte("forged")

// proposal is the sender's value: the caller's when the instance carries
// one, else the driver's canonical def.
func proposal(inst Instance, def []byte) []byte {
	if len(inst.Value) > 0 {
		return inst.Value
	}
	return def
}

// equivocatorFunc builds a protocol's bespoke two-faced sender: one
// value for faceOne, altSenderValue for everyone else.
type equivocatorFunc func(c *core.Cluster, inst Instance, faceOne model.NodeSet) (sim.Process, error)

// RunNodes runs the instance over c — its cluster from ClusterSetup —
// as a protocol whose correct node is what build returns and whose
// deadline is maxRounds, under the instance's full strategy and network
// condition. It is all a registered driver needs besides its own nodes:
// the report carries rounds and traffic, and honest holds the built
// processes by node ID, nil at every faulty slot, for the driver to read
// outcomes from.
func RunNodes(inst Instance, c *core.Cluster, name string, maxRounds int, build core.NodeBuilder) (rep core.Report, honest []sim.Process, err error) {
	opts, err := runOptions(inst, c, nil)
	if err != nil {
		return core.Report{}, nil, err
	}
	return c.Run(name, maxRounds, build, opts...)
}

// runOptions compiles the instance's strategy and network condition
// into run options, for every driver; equivocator is the driver's
// two-faced sender, nil for one that has none.
func runOptions(inst Instance, c *core.Cluster, equivocator equivocatorFunc) ([]core.RunOption, error) {
	corrupt := inst.Strategy.CorruptSet(inst.N, inst.Seed)
	var opts []core.RunOption
	var err error
	for _, id := range corrupt.Sorted() {
		if opts, err = appendFault(opts, inst, c, id, equivocator); err != nil {
			return nil, err
		}
	}
	if net := inst.Net; net != nil {
		// Churn wraps only nodes the strategy left honest: a node the
		// adversary already corrupted has no correct process to crash
		// and restart (and Faulty() counts it once either way).
		for _, ch := range net.Churn {
			if id := model.NodeID(ch.Node); id.Valid(inst.N) && !corrupt.Contains(id) {
				opts = append(opts, core.WithChurn(ch))
			}
		}
		if net.DegradesLinks() {
			// A fresh model per run: concurrent instances never share
			// RNG streams.
			opts = append(opts, core.WithNetwork(netcond.NewModel(*net, inst.N, inst.Seed)))
		}
	}
	return opts, nil
}

// appendFault appends the run options that corrupt node id under the
// instance's strategy. A from-the-start crash runs silent — cheaper
// than stepping a wrapped node whose every send is dropped anyway.
// Otherwise the node's process — the correct one, or for an
// equivocating sender the protocol's bespoke two-faced one in place of
// the generic payload rewrite — runs under the compiled behavior stack.
func appendFault(opts []core.RunOption, inst Instance, c *core.Cluster, id model.NodeID, equivocator equivocatorFunc) ([]core.RunOption, error) {
	specs := inst.Strategy.Behaviors
	if len(specs) == 1 && specs[0].Name == adversary.BehaviorCrash && specs[0].Round <= 1 {
		return append(opts, core.WithProcess(id, sim.Silent{})), nil
	}
	if id == fd.Sender && equivocator != nil && inst.Strategy.HasBehavior(adversary.BehaviorEquivocate) {
		var partition string
		specs, partition = splitEquivocate(specs)
		faceOne, err := adversary.PartitionFaceOne(partition, inst.N)
		if err != nil {
			return nil, err
		}
		sender, err := equivocator(c, inst, faceOne)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithProcess(id, sender))
		if len(specs) == 0 {
			return opts, nil
		}
	}
	behaviors, err := adversary.BuildBehaviors(specs, inst.N)
	if err != nil {
		return nil, err
	}
	return append(opts, core.WithWrappedProcess(id, func(p sim.Process) sim.Process {
		return adversary.WrapBehaviors(p, behaviors...)
	})), nil
}

// splitEquivocate takes equivocate out of a behavior stack — a bespoke
// two-faced process replaces it — and returns the rest with the first
// equivocate's partition.
func splitEquivocate(specs []adversary.BehaviorSpec) (rest []adversary.BehaviorSpec, partition string) {
	seen := false
	for _, b := range specs {
		if b.Name != adversary.BehaviorEquivocate {
			rest = append(rest, b)
		} else if !seen {
			partition, seen = b.Partition, true
		}
	}
	return rest, partition
}

// outcomesAgree reports whether every outcome decided on one identical
// value. Outcomes belong to correct nodes only (overridden processes
// report none).
func outcomesAgree(outcomes []model.Outcome) bool {
	if len(outcomes) == 0 {
		return false
	}
	var first []byte
	for i, o := range outcomes {
		if !o.Decided {
			return false
		}
		if i == 0 {
			first = o.Value
			continue
		}
		if !bytes.Equal(o.Value, first) {
			return false
		}
	}
	return true
}

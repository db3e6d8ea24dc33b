package protocol

import (
	"cmp"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/sig"
	"repro/internal/sim"
)

// The one wiring path from an Instance to processes: the strategy and
// network condition compile to core run options, and core.Cluster's run
// loop decides silent / wrapped / churned / honest per node. The rules
// here are protocol-agnostic; the protocol-specific parts — what a
// correct node is, and the second face of a two-faced sender — come from
// the driver.

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

// equivocatorFunc builds a protocol's two-faced sender: its correct
// sender under filters that show everyone outside faceOne the payload it
// would send for altSenderValue.
type equivocatorFunc func(c *core.Cluster, inst Instance, faceOne model.NodeSet) (sim.Process, error)

// secondFace shows payload, built once per run, to everyone outside
// faceOne: TwoFaced with a constant, so no message pays a copy.
func secondFace(faceOne model.NodeSet, payload []byte) adversary.Filter {
	return adversary.TwoFaced(faceOne, func([]byte) []byte { return payload })
}

// RunNodes runs the instance over c — its cluster from ClusterSetup —
// as a protocol whose correct node is what build returns and whose
// deadline is maxRounds, under the instance's full strategy and network
// condition. It is all a registered driver needs besides its own nodes:
// the report carries rounds and traffic, and honest holds the built
// processes by node ID, nil at every faulty slot, for the driver to read
// outcomes from. It is every driver's path without a two-faced sender.
func RunNodes(inst Instance, c *core.Cluster, name string, maxRounds int, build core.NodeBuilder) (rep core.Report, honest []sim.Process, err error) {
	return runNodes(inst, c, name, maxRounds, nil, build)
}

// runNodes is every driver's one way to the engine: RunNodes, with
// equivocator as the driver's two-faced sender (nil: none). It compiles
// the instance's strategy and network condition into run options for
// the cluster's run loop.
func runNodes(inst Instance, c *core.Cluster, name string, maxRounds int, equivocator equivocatorFunc, build core.NodeBuilder) (core.Report, []sim.Process, error) {
	corrupt := inst.Strategy.CorruptSet(inst.N, inst.Seed)
	var opts []core.RunOption
	var err error
	ids := corrupt.Sorted()
	for _, id := range ids {
		if opts, err = appendFault(opts, inst, c, id, ids[0], equivocator); err != nil {
			return core.Report{}, nil, err
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
	return c.Run(name, maxRounds, build, opts...)
}

// appendFault appends the run options that corrupt node id under the
// instance's strategy. A from-the-start crash runs silent — cheaper
// than stepping a wrapped node whose every send is dropped anyway.
// Otherwise the node's correct process runs under the compiled behavior
// stack; an equivocating sender's stack opens with its driver's second
// face in place of the bit-flipping TwoFaced. Resign signs with the key
// of lowest, the corrupt set's lowest-numbered node, and wrong-name with
// the node's own: a faulty node only ever holds faulty keys.
func appendFault(opts []core.RunOption, inst Instance, c *core.Cluster, id, lowest model.NodeID, equivocator equivocatorFunc) ([]core.RunOption, error) {
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
	var keyed func(adversary.BehaviorSpec) (adversary.Behavior, error)
	if inst.Strategy.HasBehavior(adversary.BehaviorResign) || inst.Strategy.HasBehavior(adversary.BehaviorWrongName) {
		keyed = func(spec adversary.BehaviorSpec) (adversary.Behavior, error) {
			if spec.Name == adversary.BehaviorWrongName {
				signer, err := c.Signer(id)
				return adversary.WrongName(signer, (id+1)%model.NodeID(inst.N)), err
			}
			signer, err := c.Signer(lowest)
			if err != nil {
				return nil, err
			}
			return adversary.Resign(c.Config(), id, signer, altSenderValue), nil
		}
	}
	behaviors, err := adversary.BuildBehaviors(specs, inst.N, keyed)
	if err != nil {
		return nil, err
	}
	return append(opts, core.WithWrappedProcess(id, func(p sim.Process) sim.Process {
		return adversary.WrapBehaviors(p, behaviors...)
	})), nil
}

// SetupOptions compiles the instance's key-distribution attack into
// EstablishAuthentication run options, none for an honest setup: each
// corrupt node runs its correct keydist node under the attack's filter.
// A claim names the lowest-numbered correct node's predicate;
// equivocate-keys shows the lower half the key the node drew and keeps,
// and the rest a key no node draws; shared-key shows everyone the lowest
// corrupt node's. Another node's key derives from the key seed
// (core.KeyRand), as that node draws it: sig.Scheme.Generate is a pure
// function of its stream.
func SetupOptions(inst Instance) ([]core.RunOption, error) {
	attack := inst.Strategy.Setup
	if attack == "" {
		return nil, nil
	}
	scheme, err := sig.ByName(cmp.Or(inst.Scheme, sig.SchemeEd25519))
	if err != nil {
		return nil, err
	}
	key := func(node int) (sig.Signer, error) { return scheme.Generate(core.KeyRand(inst.KeySeed, node)) }
	corrupt := inst.Strategy.CorruptSet(inst.N, inst.Seed)
	ids := corrupt.Sorted()
	victim := model.NodeID(0)
	for corrupt.Contains(victim) {
		victim++
	}
	var opts []core.RunOption
	for _, id := range ids {
		var wrap func(sim.Process) sim.Process
		var one, two sig.Signer
		switch attack {
		case adversary.SetupSilent:
			wrap = func(p sim.Process) sim.Process { return adversary.Wrap(p, adversary.DropAll(1)) }
		case adversary.SetupForeignClaim:
			if one, err = key(int(victim)); err == nil {
				wrap = adversary.ForeignClaim(one.Predicate())
			}
		case adversary.SetupRelayChallenge:
			if one, err = key(int(victim)); err == nil {
				wrap = adversary.ChallengeRelay(inst.Config(), id, victim, one.Predicate())
			}
		case adversary.SetupEquivocateKeys:
			two, err = key(-1 - int(id)) // a stream no node's key comes from
			faceOne, _ := adversary.PartitionFaceOne(adversary.PartitionHalves, inst.N)
			wrap = func(p sim.Process) sim.Process {
				return adversary.NewKeyFaces(faceOne, p.(*keydist.Node).Signer(), two).Wrap(p)
			}
		case adversary.SetupSharedKey:
			one, err = key(int(ids[0]))
			wrap = adversary.NewKeyFaces(nil, one, one).Wrap
		default:
			err = fmt.Errorf("protocol: unknown setup %q", attack)
		}
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithWrappedProcess(id, wrap))
	}
	return opts, nil
}

// splitEquivocate takes equivocate out of a behavior stack — the
// driver's two-faced sender replaces it — and returns the rest with the
// first equivocate's partition.
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

package protocol

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/sim"
)

// The cluster driver family: every protocol that runs through
// core.Cluster.RunFailureDiscovery — the chain FD protocol, the
// non-authenticated baseline, the binary small-range variant, and the
// two full agreement protocols FDBA and SM(t) — shares this one Driver
// implementation, parameterized by the core protocol selector, the
// sender's proposal, its capabilities, its verdict profile, and (where
// supported) a bespoke two-faced sender constructor. Adding another
// cluster-backed protocol is one registration below plus its
// core.Protocol case.

// equivocatorFunc builds a protocol's bespoke two-faced sender showing
// senderValue to faceOne and altSenderValue to everyone else.
type equivocatorFunc func(c *core.Cluster, inst Instance, faceOne model.NodeSet) (sim.Process, error)

type clusterDriver struct {
	name        string
	proto       core.Protocol
	value       []byte
	caps        Capabilities
	verdicts    VerdictMapper
	equivocator equivocatorFunc
}

func (d *clusterDriver) Name() string               { return d.name }
func (d *clusterDriver) Capabilities() Capabilities { return d.caps }
func (d *clusterDriver) Verdicts() VerdictMapper    { return d.verdicts }

// Prepare implements Driver. nonauth ignores keys entirely, so its setup
// is free, skips establishment, and declares CacheableSetup false; the
// authenticated protocols wrap the shared nodes of their
// (scheme, n, keySeed) cell when the store has it, paying keygen and the
// 3n(n−1)-message handshake once per cell instead of once per seed.
func (d *clusterDriver) Prepare(inst Instance, cache *SetupCache) (Setup, error) {
	return ClusterSetup(inst, cache, d.proto != core.ProtocolNonAuth)
}

// Run implements Driver.
func (d *clusterDriver) Run(inst Instance, setup Setup) (Outcome, error) {
	c := setup.(*core.Cluster)
	value := d.value
	if len(inst.Value) > 0 {
		value = inst.Value
	}
	corrupt := inst.Strategy.CorruptSet(inst.N, inst.Seed)
	runOpts := []core.RunOption{core.WithProtocol(d.proto)}
	for _, id := range corrupt.Sorted() {
		opt, err := d.faultOption(inst, c, id)
		if err != nil {
			return Outcome{}, err
		}
		runOpts = append(runOpts, opt)
	}
	if net := inst.Net; net != nil {
		// Churn wraps only nodes the strategy left honest: a node the
		// adversary already corrupted has no correct process to crash
		// and restart (and Faulty() counts it once either way).
		for _, ch := range net.Churn {
			if id := model.NodeID(ch.Node); id.Valid(inst.N) && !corrupt.Contains(id) {
				runOpts = append(runOpts, core.WithChurn(ch))
			}
		}
		if net.DegradesLinks() {
			runOpts = append(runOpts, core.WithNetwork(netcond.NewModel(*net, inst.N, inst.Seed)))
		}
	}
	rep, err := c.RunFailureDiscovery(value, runOpts...)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Rounds:     rep.Rounds,
		RoundBound: core.EngineRounds(d.proto, inst.T),
		Snapshot:   rep.Snapshot,
		Agreed:     outcomesAgree(rep.Outcomes),
		Discovered: len(rep.Discoveries) > 0,
		SubRuns:    []SubRun{{Sender: fd.Sender, Initial: value, Outcomes: rep.Outcomes}},
	}, nil
}

// faultOption builds the run option that corrupts node id under the
// instance's strategy. An equivocating sender gets the protocol's
// bespoke two-faced process (remaining behaviors wrap it); a
// from-the-start crash runs silent; every other stack wraps the node's
// correct process with the compiled behavior filters.
func (d *clusterDriver) faultOption(inst Instance, c *core.Cluster, id model.NodeID) (core.RunOption, error) {
	strat := inst.Strategy
	if id == fd.Sender && strat.HasBehavior(adversary.BehaviorEquivocate) && d.equivocator != nil {
		faceOne, err := adversary.PartitionFaceOne(equivocatePartition(strat), inst.N)
		if err != nil {
			return nil, err
		}
		sender, err := d.equivocator(c, inst, faceOne)
		if err != nil {
			return nil, err
		}
		sender, err = wrapRemaining(sender, strat.Behaviors, inst.N)
		if err != nil {
			return nil, err
		}
		return core.WithProcess(id, sender), nil
	}
	if pureCrash(strat.Behaviors) {
		return core.WithProcess(id, sim.Silent{}), nil
	}
	behaviors, err := adversary.BuildBehaviors(strat.Behaviors, inst.N)
	if err != nil {
		return nil, err
	}
	return core.WithWrappedProcess(id, func(p sim.Process) sim.Process {
		return adversary.WrapBehaviors(p, behaviors...)
	}), nil
}

// chainEquivocator is the two-faced sender of the chain-signed
// protocols (chain, and fdba's chain phase 1): both signed chains pass
// through P_1, whose duplicate check discovers the deviation. The FDBA
// case then plays no fallback part — a faulty node owes the protocol
// nothing, and the correct nodes' fallback must align without it.
func chainEquivocator(c *core.Cluster, inst Instance, faceOne model.NodeSet) (sim.Process, error) {
	signer, err := c.Signer(fd.Sender)
	if err != nil {
		return nil, err
	}
	return adversary.NewEquivocatingSenderFaces(c.Config(), signer, senderValue, altSenderValue, faceOne), nil
}

// plainEquivocator is the unsigned two-faced sender of the
// non-authenticated baseline.
func plainEquivocator(c *core.Cluster, _ Instance, faceOne model.NodeSet) (sim.Process, error) {
	return adversary.NewEquivocatingPlainSenderFaces(c.Config(), senderValue, altSenderValue, faceOne), nil
}

// signedEquivocator is the two-faced SM(t) sender: one signed value per
// face, broadcast in round 1.
func signedEquivocator(c *core.Cluster, _ Instance, faceOne model.NodeSet) (sim.Process, error) {
	signer, err := c.Signer(fd.Sender)
	if err != nil {
		return nil, err
	}
	return adversary.NewEquivocatingSignedSenderFaces(c.Config(), signer, senderValue, altSenderValue, faceOne), nil
}

func init() {
	Register(&clusterDriver{
		name:  NameChain,
		proto: core.ProtocolChain,
		value: senderValue,
		caps: Capabilities{
			UsesSignatures:     true,
			CacheableSetup:     true,
			SupportsEquivocate: true,
		},
		verdicts:    VerdictsAuthenticatedFD,
		equivocator: chainEquivocator,
	})
	Register(&clusterDriver{
		name:  NameNonAuth,
		proto: core.ProtocolNonAuth,
		value: senderValue,
		caps: Capabilities{
			SupportsEquivocate: true,
		},
		verdicts:    VerdictsUnauthenticatedFD,
		equivocator: plainEquivocator,
	})
	Register(&clusterDriver{
		name:  NameSmallRange,
		proto: core.ProtocolSmallRange,
		value: []byte{1},
		caps: Capabilities{
			UsesSignatures: true,
			CacheableSetup: true,
		},
		verdicts: VerdictsSilenceDefault,
	})
	Register(&clusterDriver{
		name:  NameFDBA,
		proto: core.ProtocolFDBA,
		value: senderValue,
		caps: Capabilities{
			UsesSignatures:     true,
			CacheableSetup:     true,
			SupportsEquivocate: true,
		},
		verdicts:    VerdictsAgreement,
		equivocator: chainEquivocator,
	})
	Register(&clusterDriver{
		name:  NameSM,
		proto: core.ProtocolSM,
		value: senderValue,
		caps: Capabilities{
			UsesSignatures:     true,
			CacheableSetup:     true,
			SupportsEquivocate: true,
		},
		verdicts:    VerdictsAgreement,
		equivocator: signedEquivocator,
	})
}

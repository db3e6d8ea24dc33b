package protocol

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// Seven drivers, one loop. The five protocols core.Cluster builds nodes
// for itself — the chain FD protocol, the non-authenticated baseline,
// the binary small-range variant, and the two full agreement protocols
// FDBA and SM(t) — share the Driver implementation below, parameterized
// by the core protocol selector, the sender's proposal, its
// capabilities, its verdict profile, and (where supported) a bespoke
// two-faced sender constructor; vector and eig bring their own node
// builder and outcome reading instead (vector.go, eig.go). All of them
// wire faults and network through runOptions and reach the engine
// through the cluster's one run loop.

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
	value := proposal(inst, d.value)
	opts, err := runOptions(inst, c, d.equivocator)
	if err != nil {
		return Outcome{}, err
	}
	rep, err := c.RunFailureDiscovery(value, append(opts, core.WithProtocol(d.proto))...)
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

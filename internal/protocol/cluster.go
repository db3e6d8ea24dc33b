package protocol

import (
	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Seven drivers, one loop. The five protocols core.Cluster builds nodes
// for itself — the chain FD protocol, the non-authenticated baseline,
// the binary small-range variant, and the two full agreement protocols
// FDBA and SM(t) — share the Driver implementation below, parameterized
// by the core protocol selector, the sender's proposal, its
// capabilities, its verdict profile, and (where supported) its two-faced
// sender, the correct sender under a second-face filter; vector and eig
// bring their own node builder and outcome reading instead (vector.go,
// eig.go). All of them wire faults and network through runOptions and
// reach the engine through the cluster's one run loop.

type clusterDriver struct {
	name        string
	proto       core.Protocol
	value       []byte
	caps        Capabilities
	verdicts    VerdictProfile
	equivocator equivocatorFunc
}

func (d *clusterDriver) Name() string               { return d.name }
func (d *clusterDriver) Capabilities() Capabilities { return d.caps }
func (d *clusterDriver) Verdicts() VerdictProfile   { return d.verdicts }

// Run implements Driver. nonauth ignores keys entirely and runs over a
// bare cluster; the authenticated protocols run over the shared nodes of
// their (scheme, n, keySeed) cell, paying keygen and the
// 3n(n−1)-message handshake once per cell instead of once per seed.
func (d *clusterDriver) Run(inst Instance, c *core.Cluster) (Outcome, error) {
	value := proposal(inst, d.value)
	opts, err := runOptions(inst, c, d.equivocator)
	if err != nil {
		return Outcome{}, err
	}
	rep, err := c.RunFailureDiscovery(value, append(opts, core.WithProtocol(d.proto))...)
	if err != nil {
		return Outcome{}, err
	}
	_, agreed := model.AgreedValue(rep.Outcomes)
	return Outcome{
		Rounds:     rep.Rounds,
		RoundBound: core.EngineRounds(d.proto, inst.T),
		Snapshot:   rep.Snapshot,
		Agreed:     agreed,
		Discovered: len(rep.Discoveries) > 0,
		SubRuns:    []SubRun{{Sender: fd.Sender, Initial: value, Outcomes: rep.Outcomes}},
	}, nil
}

// chainEquivocator is the two-faced sender of the chain-signed
// protocols (chain, and fdba's chain phase 1): a correct chain sender of
// senderValue whose second face is altSenderValue's chain. At t = 0 it
// disseminates, and everyone outside faceOne gets the second chain; with
// relays it sends the second chain to P_1 after the first, and P_1's
// duplicate check discovers the deviation. fdba's sender is a chain node
// too, so it plays no fallback part — a faulty node owes the protocol
// nothing, and the correct nodes' fallback must align without it.
func chainEquivocator(c *core.Cluster, inst Instance, faceOne model.NodeSet) (sim.Process, error) {
	signer, dir, second, err := senderKeys(c)
	if err != nil {
		return nil, err
	}
	sender, err := fd.NewChainNode(c.Config(), fd.Sender, signer, dir, fd.WithValue(senderValue))
	if err != nil {
		return nil, err
	}
	if inst.T == 0 {
		return adversary.Wrap(sender, secondFace(faceOne, second)), nil
	}
	return adversary.Wrap(sender, adversary.InjectAt(1,
		model.Message{To: fd.Sender + 1, Kind: model.KindChainValue, Payload: second})), nil
}

// plainEquivocator is the two-faced sender of the non-authenticated
// baseline: its correct sender, altSenderValue outside faceOne. The
// sender is the one of the t = 0 run, which broadcasts and is done — a
// faulty sender owes the echo round's cross-check nothing, and waiting
// for it would hold the run open a round after every correct node
// stopped.
func plainEquivocator(c *core.Cluster, _ Instance, faceOne model.NodeSet) (sim.Process, error) {
	sender, err := fd.NewNonAuthNode(model.Config{N: c.Config().N}, fd.Sender, fd.WithNonAuthValue(senderValue))
	if err != nil {
		return nil, err
	}
	return adversary.Wrap(sender, secondFace(faceOne, altSenderValue)), nil
}

// signedEquivocator is the two-faced SM(t) sender: its correct sender,
// altSenderValue's chain outside faceOne.
func signedEquivocator(c *core.Cluster, _ Instance, faceOne model.NodeSet) (sim.Process, error) {
	signer, dir, second, err := senderKeys(c)
	if err != nil {
		return nil, err
	}
	sender, err := ba.NewSMNode(c.Config(), fd.Sender, signer, dir, ba.WithSMValue(senderValue))
	if err != nil {
		return nil, err
	}
	return adversary.Wrap(sender, secondFace(faceOne, second)), nil
}

// senderKeys returns P_0's signer and directory, and altSenderValue's
// chain signed by P_0: a signing sender's second face.
func senderKeys(c *core.Cluster) (sig.Signer, sig.Directory, []byte, error) {
	signer, err := c.Signer(fd.Sender)
	if err != nil {
		return nil, nil, nil, err
	}
	dir, err := c.Directory(fd.Sender)
	if err != nil {
		return nil, nil, nil, err
	}
	second, err := sig.NewChain(altSenderValue, signer)
	if err != nil {
		return nil, nil, nil, err
	}
	return signer, dir, second.Marshal(), nil
}

// chainCost is Fig. 2's failure-free cost (chain, fdba): n−1 messages,
// the minimum, in the t hops plus the dissemination round, which t = n−1
// has none of.
func chainCost(inst Instance) (messages, commRounds int) {
	return inst.N - 1, min(inst.T+1, inst.N-1)
}

// smallRangeBit is the small-range sender's canonical proposal; its cost
// is none at all for the default bit 0, which silence encodes, and
// Fig. 2's chain for 1.
var smallRangeBit = []byte{1}

func smallRangeCost(inst Instance) (messages, commRounds int) {
	if proposal(inst, smallRangeBit)[0] == 0 {
		return 0, 0
	}
	return chainCost(inst)
}

func init() {
	Register(&clusterDriver{
		name:  NameChain,
		proto: core.ProtocolChain,
		value: senderValue,
		caps: Capabilities{
			UsesSignatures:     true,
			SupportsEquivocate: true,
		},
		verdicts:    VerdictsAuthenticatedFD.declaring(chainCost),
		equivocator: chainEquivocator,
	})
	Register(&clusterDriver{
		name:  NameNonAuth,
		proto: core.ProtocolNonAuth,
		value: senderValue,
		caps: Capabilities{
			SupportsEquivocate: true,
		},
		// The sender's broadcast and t echo broadcasts, (t+1)(n−1) =
		// O(n·t), in one round at t = 0 and two after.
		verdicts: VerdictsUnauthenticatedFD.declaring(func(inst Instance) (int, int) {
			return (inst.T + 1) * (inst.N - 1), 1 + min(inst.T, 1)
		}),
		equivocator: plainEquivocator,
	})
	Register(&clusterDriver{
		name:  NameSmallRange,
		proto: core.ProtocolSmallRange,
		value: smallRangeBit,
		caps: Capabilities{
			UsesSignatures: true,
		},
		verdicts: VerdictsSilenceDefault.declaring(smallRangeCost),
	})
	Register(&clusterDriver{
		name:  NameFDBA,
		proto: core.ProtocolFDBA,
		value: senderValue,
		caps: Capabilities{
			UsesSignatures:     true,
			SupportsEquivocate: true,
		},
		verdicts:    VerdictsAgreement.declaring(chainCost),
		equivocator: chainEquivocator,
	})
	Register(&clusterDriver{
		name:  NameSM,
		proto: core.ProtocolSM,
		value: senderValue,
		caps: Capabilities{
			UsesSignatures:     true,
			SupportsEquivocate: true,
		},
		// The sender's broadcast, then (t ≥ 1) each receiver relays it
		// to the n−2 nodes that have not signed it, in one more round.
		verdicts: VerdictsAgreement.declaring(func(inst Instance) (int, int) {
			if inst.T == 0 {
				return inst.N - 1, 1
			}
			return (inst.N - 1) * (inst.N - 1), 1 + min(inst.N-2, 1)
		}),
		equivocator: signedEquivocator,
	})
}

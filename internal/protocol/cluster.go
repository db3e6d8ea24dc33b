package protocol

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Seven drivers, one path. Every built-in driver but vector is a row
// of this table: a name, the sender's canonical proposal, capabilities,
// a verdict profile, the engine-round bound, what a correct node is, and
// (where supported) a two-faced sender — the correct sender under a
// second-face filter. A row reads its nodes' outcomes through
// fd.Outcomer; vector reads one sub-run per sender itself (vector.go).
// Every driver reaches the engine through runNodes, the path RunNodes
// gives a driver registered from outside.

type clusterDriver struct {
	name        string
	value       []byte
	caps        Capabilities
	verdicts    VerdictProfile
	rounds      func(t int) int
	node        nodeFunc
	equivocator equivocatorFunc
}

// nodeFunc builds node id's correct process, the sender proposing
// value, over id's established signer and directory (nil for a protocol
// that signs nothing). It reads nothing else, so a churned node's
// rebuild is restart-with-recovery.
type nodeFunc func(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (sim.Process, error)

func (d *clusterDriver) Name() string               { return d.name }
func (d *clusterDriver) Capabilities() Capabilities { return d.caps }
func (d *clusterDriver) Verdicts() VerdictProfile   { return d.verdicts }

// Run implements Driver: the row's nodes under the instance's strategy
// and network condition, one SubRun of the correct nodes' outcomes.
func (d *clusterDriver) Run(inst Instance, c *core.Cluster) (Outcome, error) {
	value := proposal(inst, d.value)
	maxRounds := d.rounds(inst.T)
	rep, honest, err := runNodes(inst, c, d.name, maxRounds, d.equivocator, d.builder(c, value))
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Rounds: rep.Rounds, RoundBound: maxRounds, Snapshot: rep.Snapshot}
	outcomes := make([]model.Outcome, 0, inst.N)
	for _, p := range honest {
		if p != nil {
			o := p.(fd.Outcomer).Outcome()
			outcomes = append(outcomes, o)
			out.Discovered = out.Discovered || o.Discovery != nil
		}
	}
	_, out.Agreed = model.AgreedValue(outcomes)
	out.SubRuns = []SubRun{{Sender: fd.Sender, Initial: value, Outcomes: outcomes}}
	return out, nil
}

// builder is the row's correct node over c, the sender proposing value.
func (d *clusterDriver) builder(c *core.Cluster, value []byte) core.NodeBuilder {
	return func(id model.NodeID) (sim.Process, error) {
		if !d.caps.UsesSignatures {
			return d.node(c.Config(), id, nil, nil, value)
		}
		signer, dir, err := nodeKeys(c, id)
		if err != nil {
			return nil, err
		}
		return d.node(c.Config(), id, signer, dir, value)
	}
}

// nodeKeys returns node id's signer and directory from c's established
// authentication, or why it holds none.
func nodeKeys(c *core.Cluster, id model.NodeID) (sig.Signer, sig.Directory, error) {
	signer, err := c.Signer(id)
	if err != nil {
		return nil, nil, err
	}
	dir, err := c.Directory(id)
	if err != nil {
		return nil, nil, err
	}
	return signer, dir, nil
}

// The rows' node functions: each protocol's correct node, P_0 sending
// value (FDBA's constructor reads it for P_0 only).
func chainNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (sim.Process, error) {
	if id == fd.Sender {
		return fd.NewChainNode(cfg, id, signer, dir, fd.WithValue(value))
	}
	return fd.NewChainNode(cfg, id, signer, dir)
}

func nonAuthNode(cfg model.Config, id model.NodeID, _ sig.Signer, _ sig.Directory, value []byte) (sim.Process, error) {
	if id == fd.Sender {
		return fd.NewNonAuthNode(cfg, id, fd.WithNonAuthValue(value))
	}
	return fd.NewNonAuthNode(cfg, id)
}

func smallRangeNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (sim.Process, error) {
	if id != fd.Sender {
		return fd.NewSmallRangeNode(cfg, id, signer, dir)
	}
	if len(value) != 1 {
		return nil, fmt.Errorf("protocol: small-range values are single bits, got %d bytes", len(value))
	}
	return fd.NewSmallRangeNode(cfg, id, signer, dir, fd.WithBinaryValue(value[0]))
}

func fdbaNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (sim.Process, error) {
	return ba.NewFDBANode(cfg, id, signer, dir, value)
}

func smNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (sim.Process, error) {
	if id == fd.Sender {
		return ba.NewSMNode(cfg, id, signer, dir, ba.WithSMValue(value))
	}
	return ba.NewSMNode(cfg, id, signer, dir)
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
	sender, second, err := signedFaces(c, chainNode)
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
	sender, second, err := signedFaces(c, smNode)
	if err != nil {
		return nil, err
	}
	return adversary.Wrap(sender, secondFace(faceOne, second)), nil
}

// signedFaces returns a signing sender's two faces: node's correct P_0
// sending senderValue, and altSenderValue's chain signed by P_0.
func signedFaces(c *core.Cluster, node nodeFunc) (sim.Process, []byte, error) {
	signer, dir, err := nodeKeys(c, fd.Sender)
	if err != nil {
		return nil, nil, err
	}
	second, err := sig.NewChain(altSenderValue, signer)
	if err != nil {
		return nil, nil, err
	}
	sender, err := node(c.Config(), fd.Sender, signer, dir, senderValue)
	return sender, second.Marshal(), err
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
		name:   NameChain,
		rounds: fd.ChainEngineRounds,
		node:   chainNode,
		value:  senderValue,
		caps: Capabilities{
			UsesSignatures:     true,
			SupportsEquivocate: true,
		},
		verdicts:    VerdictsAuthenticatedFD.declaring(chainCost),
		equivocator: chainEquivocator,
	})
	Register(&clusterDriver{
		name:   NameNonAuth,
		rounds: fd.NonAuthEngineRounds,
		node:   nonAuthNode,
		value:  senderValue,
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
		name:   NameSmallRange,
		rounds: fd.ChainEngineRounds,
		node:   smallRangeNode,
		value:  smallRangeBit,
		caps: Capabilities{
			UsesSignatures: true,
		},
		verdicts: VerdictsSilenceDefault.declaring(smallRangeCost),
	})
	Register(&clusterDriver{
		name:   NameFDBA,
		rounds: ba.FDBAEngineRounds,
		node:   fdbaNode,
		value:  senderValue,
		caps: Capabilities{
			UsesSignatures:     true,
			SupportsEquivocate: true,
		},
		verdicts:    VerdictsAgreement.declaring(chainCost),
		equivocator: chainEquivocator,
	})
	Register(&clusterDriver{
		name:   NameSM,
		rounds: ba.SMEngineRounds,
		node:   smNode,
		value:  senderValue,
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

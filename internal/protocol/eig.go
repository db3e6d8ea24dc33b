package protocol

import (
	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// eigNode builds node id's correct OM(t) process. Its nodes hold no
// keys, so the driver does not declare UsesSignatures and RunInstance
// hands it a bare cluster like nonauth's, never touching the setup store.
func eigNode(cfg model.Config, id model.NodeID, _ sig.Signer, _ sig.Directory, value []byte) (sim.Process, error) {
	if id == ba.Sender {
		return ba.NewEIGNode(cfg, id, ba.WithEIGValue(value))
	}
	return ba.NewEIGNode(cfg, id)
}

// oralEquivocator is the two-faced OM(t) sender: a correct sender whose
// round-1 report is altSenderValue's for everyone outside faceOne — a
// proper second face, not a tampered payload.
func oralEquivocator(c *core.Cluster, inst Instance, faceOne model.NodeSet) (sim.Process, error) {
	sender, err := eigNode(c.Config(), ba.Sender, nil, nil, proposal(inst, senderValue))
	if err != nil {
		return nil, err
	}
	second := ba.MarshalOralEntries([]ba.OralEntry{{Path: []model.NodeID{ba.Sender}, Value: altSenderValue}})
	return adversary.Wrap(sender, secondFace(faceOne, second)), nil
}

func init() {
	Register(&clusterDriver{
		name:   NameEIG,
		rounds: ba.EIGEngineRounds,
		node:   eigNode,
		value:  senderValue,
		caps: Capabilities{
			SupportsEquivocate:    true,
			RequiresSupermajority: true, // OM(t) needs n > 3t even to run
			MaxN:                  256,  // admission bound on an O(n^t) protocol
		},
		// OM(t)'s failure-free cost as this code counts it, one message
		// per node pair and round (ba's tests pin the relayed entries
		// inside, which grow as n^t): (n−1)+t(n−1)² in t+1 rounds.
		verdicts: VerdictsUnauthenticatedFD.declaring(func(inst Instance) (int, int) {
			return (inst.N - 1) + inst.T*(inst.N-1)*(inst.N-1), inst.T + 1
		}),
		equivocator: oralEquivocator,
	})
}

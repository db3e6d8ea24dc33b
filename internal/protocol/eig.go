package protocol

import (
	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// eigDriver runs the OM(t) oral-messages baseline. It has no setup phase
// at all — nodes hold no keys, so it does not declare UsesSignatures and
// RunInstance hands it a bare cluster like nonauth's, never touching the
// setup store.
type eigDriver struct{}

func (eigDriver) Name() string { return NameEIG }

func (eigDriver) Capabilities() Capabilities {
	return Capabilities{
		SupportsEquivocate:    true,
		RequiresSupermajority: true, // OM(t) needs n > 3t even to run
		MaxN:                  256,  // admission bound on an O(n^t) protocol
	}
}

// Verdicts declares OM(t)'s failure-free cost as this code counts it,
// one message per node pair and round (ba's tests pin the relayed
// entries inside, which grow as n^t): (n−1)+t(n−1)² in t+1 rounds.
func (eigDriver) Verdicts() VerdictProfile {
	return VerdictsUnauthenticatedFD.declaring(func(inst Instance) (int, int) {
		return (inst.N - 1) + inst.T*(inst.N-1)*(inst.N-1), inst.T + 1
	})
}

// eigNode builds node id's correct OM(t) process.
func eigNode(inst Instance, id model.NodeID) (*ba.EIGNode, error) {
	if id == ba.Sender {
		return ba.NewEIGNode(inst.Config(), id, ba.WithEIGValue(proposal(inst, senderValue)))
	}
	return ba.NewEIGNode(inst.Config(), id)
}

// oralEquivocator is the two-faced OM(t) sender: a correct sender whose
// round-1 report is altSenderValue's for everyone outside faceOne — a
// proper second face, not a tampered payload.
func oralEquivocator(_ *core.Cluster, inst Instance, faceOne model.NodeSet) (sim.Process, error) {
	sender, err := eigNode(inst, ba.Sender)
	if err != nil {
		return nil, err
	}
	second := ba.MarshalOralEntries([]ba.OralEntry{{Path: []model.NodeID{ba.Sender}, Value: altSenderValue}})
	return adversary.Wrap(sender, secondFace(faceOne, second)), nil
}

func (eigDriver) Run(inst Instance, c *core.Cluster) (Outcome, error) {
	opts, err := runOptions(inst, c, oralEquivocator)
	if err != nil {
		return Outcome{}, err
	}
	maxRounds := ba.EIGEngineRounds(inst.T)
	rep, honest, err := c.Run(NameEIG, maxRounds, func(id model.NodeID) (sim.Process, error) {
		return eigNode(inst, id)
	}, opts...)
	if err != nil {
		return Outcome{}, err
	}
	outcomes := make([]model.Outcome, 0, inst.N)
	for i, p := range honest {
		if p == nil {
			continue
		}
		d := p.(*ba.EIGNode).Decision()
		outcomes = append(outcomes, model.Outcome{Node: model.NodeID(i), Decided: d.Value != nil, Value: d.Value})
	}
	_, agreed := model.AgreedValue(outcomes)
	return Outcome{
		Rounds:     rep.Rounds,
		RoundBound: maxRounds,
		Snapshot:   rep.Snapshot,
		Agreed:     agreed,
		SubRuns:    []SubRun{{Sender: ba.Sender, Initial: proposal(inst, senderValue), Outcomes: outcomes}},
	}, nil
}

func init() { Register(eigDriver{}) }

package protocol

import (
	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// eigDriver runs the OM(t) oral-messages baseline. It has no setup phase
// at all — nodes hold no keys, its cluster is a bare one like nonauth's
// — so its Capabilities declare CacheableSetup false explicitly: the
// setup-cache skip is a published property of the driver, asserted by
// tests, not an implicit branch in the runner.
type eigDriver struct{}

func (eigDriver) Name() string { return NameEIG }

func (eigDriver) Capabilities() Capabilities {
	return Capabilities{
		SupportsEquivocate:    true,
		RequiresSupermajority: true, // OM(t) needs n > 3t even to run
		MaxN:                  256,  // admission bound on an O(n^t) protocol
	}
}

func (eigDriver) Verdicts() VerdictMapper { return VerdictsUnauthenticatedFD }

// Prepare implements Driver: OM(t) has nothing to establish.
func (eigDriver) Prepare(inst Instance, cache *SetupCache) (Setup, error) {
	return ClusterSetup(inst, cache, false)
}

// eigNode builds node id's correct OM(t) process.
func eigNode(inst Instance, id model.NodeID) (*ba.EIGNode, error) {
	if id == ba.Sender {
		return ba.NewEIGNode(inst.Config(), id, ba.WithEIGValue(proposal(inst, senderValue)))
	}
	return ba.NewEIGNode(inst.Config(), id)
}

// oralEquivocator is the two-faced OM(t) sender: a correct sender whose
// round-1 reports are rewritten to altSenderValue for everyone outside
// faceOne — a proper second face, not a tampered payload.
func oralEquivocator(_ *core.Cluster, inst Instance, faceOne model.NodeSet) (sim.Process, error) {
	sender, err := eigNode(inst, ba.Sender)
	if err != nil {
		return nil, err
	}
	alt := ba.MarshalOralEntries([]ba.OralEntry{{Path: []model.NodeID{ba.Sender}, Value: altSenderValue}})
	return adversary.Wrap(sender, func(round int, out []model.Message) []model.Message {
		if round != 1 {
			return out
		}
		for i := range out {
			if out[i].Kind == model.KindOral && !faceOne.Contains(out[i].To) {
				out[i].Payload = alt
			}
		}
		return out
	}), nil
}

func (eigDriver) Run(inst Instance, setup Setup) (Outcome, error) {
	c := setup.(*core.Cluster)
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
	return Outcome{
		Rounds:     rep.Rounds,
		RoundBound: maxRounds,
		Snapshot:   rep.Snapshot,
		Agreed:     outcomesAgree(outcomes),
		SubRuns:    []SubRun{{Sender: ba.Sender, Initial: proposal(inst, senderValue), Outcomes: outcomes}},
	}, nil
}

func init() { Register(eigDriver{}) }

package protocol

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// vectorDriver runs the all-senders vector composition: one honest key
// distribution (the paper's once-amortized setup phase — the same store
// cell the cluster drivers read, so a warm one is reused), then the
// vector round with the adversary strategy applied. Every node is a sender of its own rotated
// chain instance, so the driver returns one conformance SubRun per
// sender and the scorer requires all of them to pass.
type vectorDriver struct{}

func (vectorDriver) Name() string { return NameVector }

func (vectorDriver) Capabilities() Capabilities {
	return Capabilities{
		UsesSignatures: true,
		CacheableSetup: true,
		// No distinguished multi-valued sender: all nodes send, so the
		// equivocate behavior is inexpressible.
	}
}

func (vectorDriver) Verdicts() VerdictMapper { return VerdictsAuthenticatedFD }

func (vectorDriver) Prepare(inst Instance, cache *SetupCache) (Setup, error) {
	return ClusterSetup(inst, cache, true)
}

// vectorProposal is node id's own proposal.
func vectorProposal(id model.NodeID) []byte { return []byte(fmt.Sprintf("proposal-%d", id)) }

func (vectorDriver) Run(inst Instance, setup Setup) (Outcome, error) {
	c := setup.(*core.Cluster)
	maxRounds := fd.ChainEngineRounds(inst.T)
	rep, honest, err := RunNodes(inst, c, NameVector, maxRounds, func(id model.NodeID) (sim.Process, error) {
		kd := c.Nodes()[id]
		return fd.NewVectorNode(c.Config(), id, kd.Signer(), kd.Directory(), vectorProposal(id))
	})
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Rounds: rep.Rounds, RoundBound: maxRounds, Snapshot: rep.Snapshot, Agreed: true}

	// Agreement: every sub-instance with a correct sender must be decided
	// identically by every correct node; any discovery anywhere is
	// recorded. Each rotated sub-instance becomes one conformance SubRun.
	faulty := inst.Faulty()
	for s := 0; s < inst.N; s++ {
		sid := model.NodeID(s)
		outcomes := make([]model.Outcome, 0, inst.N)
		for _, p := range honest {
			if p == nil {
				continue
			}
			o := p.(*fd.VectorNode).Outcome(sid)
			outcomes = append(outcomes, o)
			if o.Discovery != nil {
				out.Discovered = true
			}
		}
		// A faulty sender carries no agreement obligation.
		if !faulty.Contains(sid) && !outcomesAgree(outcomes) {
			out.Agreed = false
		}
		out.SubRuns = append(out.SubRuns, SubRun{Sender: sid, Initial: vectorProposal(sid), Outcomes: outcomes})
	}
	return out, nil
}

func init() { Register(vectorDriver{}) }

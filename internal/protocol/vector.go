package protocol

import (
	"strconv"

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
		// No distinguished multi-valued sender: all nodes send, so the
		// equivocate behavior is inexpressible.
	}
}

// Verdicts declares n chain runs' failure-free cost: n(n−1) messages in
// the rounds of one.
func (vectorDriver) Verdicts() VerdictProfile {
	return VerdictsAuthenticatedFD.declaring(func(inst Instance) (int, int) {
		_, rounds := chainCost(inst)
		return inst.N * (inst.N - 1), rounds
	})
}

// vectorProposals returns every node's own proposal, "proposal-<id>",
// built once per instance in one allocation each: the nodes copy theirs,
// and the sub-runs score against the same bytes.
func vectorProposals(n int) [][]byte {
	const prefix = "proposal-"
	out := make([][]byte, n)
	for id := range out {
		out[id] = strconv.AppendInt(append(make([]byte, 0, len(prefix)+20), prefix...), int64(id), 10)
	}
	return out
}

func (vectorDriver) Run(inst Instance, c *core.Cluster) (Outcome, error) {
	maxRounds := fd.ChainEngineRounds(inst.T)
	proposals := vectorProposals(inst.N)
	rep, honest, err := RunNodes(inst, c, NameVector, maxRounds, func(id model.NodeID) (sim.Process, error) {
		kd := c.Nodes()[id]
		return fd.NewVectorNode(c.Config(), id, kd.Signer(), kd.Directory(), proposals[id])
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
		if _, agreed := model.AgreedValue(outcomes); !agreed && !faulty.Contains(sid) {
			out.Agreed = false
		}
		out.SubRuns = append(out.SubRuns, SubRun{Sender: sid, Initial: proposals[sid], Outcomes: outcomes})
	}
	return out, nil
}

func init() { Register(vectorDriver{}) }

package protocol

import (
	"bytes"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netcond"
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
	return cache.Established(inst)
}

func (vectorDriver) Run(inst Instance, setup Setup) (Outcome, error) {
	kdNodes := setup.([]*keydist.Node)
	cfg := inst.Config()
	strat := inst.Strategy
	faulty := inst.Faulty()
	corruptSet := strat.CorruptSet(inst.N, inst.Seed)
	churn := churnByNode(inst, corruptSet)
	procs := make([]sim.Process, inst.N)
	nodes := make([]*fd.VectorNode, inst.N)
	for i := 0; i < inst.N; i++ {
		id := model.NodeID(i)
		if corruptSet.Contains(id) && pureCrash(strat.Behaviors) {
			procs[i] = sim.Silent{}
			continue
		}
		buildNode := func() (*fd.VectorNode, error) {
			return fd.NewVectorNode(cfg, id, kdNodes[i].Signer(), kdNodes[i].Directory(),
				[]byte(fmt.Sprintf("proposal-%d", i)))
		}
		node, err := buildNode()
		if err != nil {
			return Outcome{}, err
		}
		if ch, ok := churn[id]; ok {
			// Churned honest node: scripted crash/restart with durable key
			// state recovered; it reports no outcome (nodes[i] stays nil).
			rebuild := func() (sim.Process, error) { return buildNode() }
			procs[i] = netcond.NewChurner(node, ch, rebuild, nil)
			continue
		}
		if corruptSet.Contains(id) {
			// A corrupt node runs the correct protocol under its behavior
			// stack; it reports no outcome (nodes[i] stays nil).
			behaviors, err := adversary.BuildBehaviors(strat.Behaviors, inst.N)
			if err != nil {
				return Outcome{}, err
			}
			procs[i] = adversary.WrapBehaviors(node, behaviors...)
			continue
		}
		nodes[i] = node
		procs[i] = node
	}
	counters := metrics.NewCounters()
	maxRounds := fd.ChainEngineRounds(inst.T)
	simOpts := []sim.Option{sim.WithCounters(counters)}
	if net := netModel(inst); net != nil {
		simOpts = append(simOpts, sim.WithNetwork(net))
	}
	simRes, err := sim.RunInstance(cfg, procs, maxRounds, simOpts...)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		Rounds:     simRes.Rounds,
		RoundBound: maxRounds,
		Snapshot:   counters.Snapshot(),
	}

	// Agreement: every sub-instance with a correct sender must be decided
	// identically by every correct node; any discovery anywhere is
	// recorded. Each rotated sub-instance becomes one conformance SubRun.
	agreed := true
	for s := 0; s < inst.N; s++ {
		sid := model.NodeID(s)
		outcomes := make([]model.Outcome, 0, inst.N)
		var first []byte
		haveFirst := false
		for _, node := range nodes {
			if node == nil {
				continue
			}
			o := node.Outcome(sid)
			outcomes = append(outcomes, o)
			if o.Discovery != nil {
				out.Discovered = true
			}
			if faulty.Contains(sid) {
				continue // no agreement obligation for a faulty sender
			}
			if !o.Decided {
				agreed = false
				continue
			}
			if !haveFirst {
				first, haveFirst = o.Value, true
			} else if !bytes.Equal(o.Value, first) {
				agreed = false
			}
		}
		out.SubRuns = append(out.SubRuns, SubRun{
			Sender:   sid,
			Initial:  []byte(fmt.Sprintf("proposal-%d", s)),
			Outcomes: outcomes,
		})
	}
	out.Agreed = agreed
	return out, nil
}

func init() { Register(vectorDriver{}) }

package netcond

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// RebuildFunc reconstructs a node's process from its durable state —
// the signer, directory, and key material that survive a crash — with
// all volatile protocol state (chains under construction, echo
// tallies) lost. core.Cluster supplies one per node by re-running its
// node construction against the cached authentication setup, which is
// exactly the restart-with-recovery the paper's authentication layer
// permits: keys persist, protocol progress does not.
type RebuildFunc func() (sim.Process, error)

// Churner wraps a process with a scripted crash-and-restart: from
// round Crash the node is down — its inbox is discarded and it sends
// nothing — and at round Restart it resumes as a freshly rebuilt
// process with recovered durable state. A Churner with Restart 0 is a
// permanent crash (equivalent to the crash adversary behavior, but
// scripted by the network condition rather than the adversary).
type Churner struct {
	proc    sim.Process
	crash   int
	restart int
	rebuild RebuildFunc
	// rebuilt latches the one-shot restart; dead latches a failed
	// rebuild (the node stays down).
	rebuilt bool
	dead    bool
}

// NewChurner wraps proc according to spec. rebuild may be nil, in
// which case a scheduled restart leaves the node down permanently.
func NewChurner(proc sim.Process, spec ChurnSpec, rebuild RebuildFunc) *Churner {
	return &Churner{
		proc:    proc,
		crash:   spec.Crash,
		restart: spec.Restart,
		rebuild: rebuild,
	}
}

// down reports whether the node is crashed in the given round.
func (c *Churner) down(round int) bool {
	return round >= c.crash && (c.restart == 0 || round < c.restart)
}

// Step implements sim.Process.
func (c *Churner) Step(round int, received []model.Message) []model.Message {
	if c.down(round) {
		// Down: messages delivered to a crashed node are lost with it.
		return nil
	}
	if c.restart != 0 && round >= c.restart && !c.rebuilt {
		c.rebuilt = true
		if c.rebuild == nil {
			c.dead = true
		} else if p, err := c.rebuild(); err != nil {
			c.dead = true
		} else {
			c.proc = p
		}
	}
	if c.dead {
		return nil
	}
	return c.proc.Step(round, received)
}

// Work implements sim.Worker: the wrapped process's declaration while
// the node is up, none while it is down.
func (c *Churner) Work(round int, received []model.Message) int {
	if c.dead || c.down(round) {
		return 0
	}
	return sim.DeclaredWork(c.proc, round, received)
}

// Finished implements sim.Finisher. Until a scheduled restart has
// happened the node reports unfinished, so the engine keeps the run
// alive long enough for the recovery (and whatever the recovered node
// then discovers) to play out; afterwards — and for permanent crashes —
// it delegates to the wrapped process.
func (c *Churner) Finished() bool {
	if c.dead {
		return true
	}
	if c.restart != 0 && !c.rebuilt {
		return false
	}
	if f, ok := c.proc.(sim.Finisher); ok {
		return f.Finished()
	}
	return true
}

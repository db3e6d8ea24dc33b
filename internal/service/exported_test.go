package service

import (
	"strings"
	"testing"

	"repro/internal/ba"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sig"
	"repro/internal/sim"
)

// exportedRow is a built-in driver rebuilt from exported API only:
// protocol.RunNodes, the exported node constructors and round bounds,
// and the built-in's own Capabilities and Verdicts. Registered under a
// test- name, it must report what the built-in reports: the built-ins
// have no privileged path to the engine. (Registered here rather than in
// campaign's tests, whose invariance grid runs every registered driver.)
type exportedRow struct {
	builtin string
	value   []byte
	rounds  func(t int) int
	node    func(c *core.Cluster, value []byte, id model.NodeID) (sim.Process, error)
}

func (r exportedRow) Name() string { return "test-exported-" + r.builtin }

func (r exportedRow) driver() protocol.Driver {
	d, err := protocol.Lookup(r.builtin)
	if err != nil {
		panic(err)
	}
	return d
}

func (r exportedRow) Capabilities() protocol.Capabilities { return r.driver().Capabilities() }
func (r exportedRow) Verdicts() protocol.VerdictProfile   { return r.driver().Verdicts() }

func (r exportedRow) Run(inst protocol.Instance, c *core.Cluster) (protocol.Outcome, error) {
	value := r.value
	if len(inst.Value) > 0 {
		value = inst.Value
	}
	rounds := r.rounds(inst.T)
	rep, honest, err := protocol.RunNodes(inst, c, r.builtin, rounds, func(id model.NodeID) (sim.Process, error) {
		return r.node(c, value, id)
	})
	if err != nil {
		return protocol.Outcome{}, err
	}
	out := protocol.Outcome{Rounds: rep.Rounds, RoundBound: rounds, Snapshot: rep.Snapshot}
	var outcomes []model.Outcome
	for _, p := range honest {
		if p != nil {
			o := p.(fd.Outcomer).Outcome()
			outcomes = append(outcomes, o)
			out.Discovered = out.Discovered || o.Discovery != nil
		}
	}
	_, out.Agreed = model.AgreedValue(outcomes)
	out.SubRuns = []protocol.SubRun{{Sender: fd.Sender, Initial: value, Outcomes: outcomes}}
	return out, nil
}

// keyed builds a signing protocol's node over id's established signer
// and directory.
func keyed(build func(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (sim.Process, error)) func(*core.Cluster, []byte, model.NodeID) (sim.Process, error) {
	return func(c *core.Cluster, value []byte, id model.NodeID) (sim.Process, error) {
		signer, err := c.Signer(id)
		if err != nil {
			return nil, err
		}
		dir, err := c.Directory(id)
		if err != nil {
			return nil, err
		}
		return build(c.Config(), id, signer, dir, value)
	}
}

var exportedRows = []exportedRow{
	{protocol.NameChain, []byte("value"), fd.ChainEngineRounds, keyed(func(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (sim.Process, error) {
		if id == fd.Sender {
			return fd.NewChainNode(cfg, id, signer, dir, fd.WithValue(value))
		}
		return fd.NewChainNode(cfg, id, signer, dir)
	})},
	{protocol.NameNonAuth, []byte("value"), fd.NonAuthEngineRounds, func(c *core.Cluster, value []byte, id model.NodeID) (sim.Process, error) {
		if id == fd.Sender {
			return fd.NewNonAuthNode(c.Config(), id, fd.WithNonAuthValue(value))
		}
		return fd.NewNonAuthNode(c.Config(), id)
	}},
	{protocol.NameSmallRange, []byte{1}, fd.ChainEngineRounds, keyed(func(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (sim.Process, error) {
		if id == fd.Sender {
			return fd.NewSmallRangeNode(cfg, id, signer, dir, fd.WithBinaryValue(value[0]))
		}
		return fd.NewSmallRangeNode(cfg, id, signer, dir)
	})},
	{protocol.NameFDBA, []byte("value"), ba.FDBAEngineRounds, keyed(func(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (sim.Process, error) {
		return ba.NewFDBANode(cfg, id, signer, dir, value)
	})},
	{protocol.NameSM, []byte("value"), ba.SMEngineRounds, keyed(func(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (sim.Process, error) {
		if id == fd.Sender {
			return ba.NewSMNode(cfg, id, signer, dir, ba.WithSMValue(value))
		}
		return ba.NewSMNode(cfg, id, signer, dir)
	})},
	{protocol.NameEIG, []byte("value"), ba.EIGEngineRounds, func(c *core.Cluster, value []byte, id model.NodeID) (sim.Process, error) {
		if id == ba.Sender {
			return ba.NewEIGNode(c.Config(), id, ba.WithEIGValue(value))
		}
		return ba.NewEIGNode(c.Config(), id)
	}},
}

func init() {
	for _, r := range exportedRows {
		protocol.Register(r)
	}
}

// TestBuiltinsHaveNoPrivilegedPath runs every built-in table row and its
// exported-API copy over a grid of adversaries (none, a crashed relay, a
// tampering relay) and network conditions (ideal, latency with loss,
// churn) at n = 4 and 7: each copy's Result is the built-in's, byte for
// byte, but for the protocol name in its group key. Equivocation is out
// of the grid: RunNodes carries no two-faced sender.
func TestBuiltinsHaveNoPrivilegedPath(t *testing.T) {
	spec := campaign.Spec{Name: "exported", Sizes: []int{4, 7}, Schemes: []string{sig.SchemeToy},
		Adversaries: []string{campaign.AdvNone, campaign.AdvCrashRelay, "relay:behavior=tamper"},
		NetConds:    []string{"ideal", "latency=uniform-0-2,loss=0.05", "churn=3@2-3"}, SeedCount: 2}
	for _, r := range exportedRows {
		spec.Protocols = append(spec.Protocols, r.builtin)
	}
	instances, err := campaign.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	ran := map[string]int{}
	for _, inst := range instances {
		copied := inst
		copied.Protocol = exportedRow{builtin: inst.Protocol}.Name()
		want, got := campaign.RunInstance(inst), campaign.RunInstance(copied)
		if want.Err != "" {
			t.Fatalf("%s: %s", inst.GroupKey(), want.Err)
		}
		if got.Group != strings.Replace(want.Group, inst.Protocol, copied.Protocol, 1) {
			t.Fatalf("copy's group %q for the built-in's %q", got.Group, want.Group)
		}
		got.Group = want.Group
		if w, g := mustJSON(t, want), mustJSON(t, got); w != g {
			t.Errorf("%s seed %d:\nbuilt-in %s\ncopy     %s", inst.GroupKey(), inst.Seed, w, g)
		}
		ran[inst.Protocol]++
	}
	if len(ran) != len(exportedRows) {
		t.Errorf("instances ran for %v, want every row", ran)
	}
}

package experiments

import (
	"cmp"
	"testing"

	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// E11's senders are the wiring's: under sender:setup=equivocate-keys P_0
// keeps its own key pair — key one, the key the lower half accepted — and
// runs its correct SM or chain sender with it. The oracle is that sender
// built by hand from key one over an empty directory, which neither
// sender reads.

// refE11Sender is the correct SM, or chain, sender of value signing with
// P_0's key under keySeed.
func refE11Sender(t *testing.T, cfg model.Config, keySeed int64, chain bool, value []byte) sim.Process {
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	keyOne, err := scheme.Generate(core.KeyRand(keySeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	var sender sim.Process
	if chain {
		sender, err = fd.NewChainNode(cfg, fd.Sender, keyOne, sig.MapDirectory{}, fd.WithValue(value))
	} else {
		sender, err = ba.NewSMNode(cfg, fd.Sender, keyOne, sig.MapDirectory{}, ba.WithSMValue(value))
	}
	if err != nil {
		t.Fatal(err)
	}
	return sender
}

// diffE11 runs E11's SM instance, or its chain instance, at seed through
// its driver, and again over the same setup with P_0 replaced by the
// reference sender under m, the other nodes built from the driver's
// exported constructors. It returns the first divergence in the messages
// delivered, in delivery order, or in the correct nodes' outcomes and the
// run's traffic.
func diffE11(t *testing.T, seed int64, chain bool, m simtest.Mutant) error {
	name, rounds := campaign.ProtoSM, ba.SMEngineRounds(1)
	if chain {
		name, rounds = campaign.ProtoChain, fd.ChainEngineRounds(1)
	}
	drv, err := protocol.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst := protocol.Instance{N: 4, T: 1, Scheme: sig.SchemeEd25519, Seed: seed, KeySeed: Seed + 1100,
		Strategy: adversary.Strategy{Nodes: []int{0}, Setup: adversary.SetupEquivocateKeys}}
	cluster := func(rec *sim.RecordingTracer) *core.Cluster {
		c, err := core.New(inst.Config(), core.WithSeed(seed), core.WithKeySeed(inst.KeySeed), core.WithTracer(rec))
		if err != nil {
			t.Fatal(err)
		}
		setup, err := protocol.SetupOptions(inst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.EstablishAuthentication(setup...); err != nil {
			t.Fatal(err)
		}
		return c
	}
	got, want := &sim.RecordingTracer{}, &sim.RecordingTracer{}
	out, err := drv.Run(inst, cluster(got))
	if err != nil {
		t.Fatal(err)
	}
	value := []byte("value")
	sender := m.Wrap(0, refE11Sender(t, inst.Config(), inst.KeySeed, chain, value))
	c := cluster(want)
	rep, honest, err := c.Run(name, rounds, func(id model.NodeID) (sim.Process, error) {
		signer, err := c.Signer(id)
		if err != nil {
			return nil, err
		}
		dir, err := c.Directory(id)
		if err != nil {
			return nil, err
		}
		if chain {
			return fd.NewChainNode(inst.Config(), id, signer, dir)
		}
		return ba.NewSMNode(inst.Config(), id, signer, dir)
	}, core.WithProcess(0, sender))
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []model.Outcome
	for _, p := range honest {
		if p != nil {
			outcomes = append(outcomes, p.(fd.Outcomer).Outcome())
		}
	}
	return cmp.Or(simtest.Traffic(want.Messages(), got.Messages(), false),
		simtest.Equal("outcomes", outcomes, out.SubRuns[0].Outcomes),
		simtest.Equal("traffic", rep.Snapshot, out.Snapshot))
}

// TestE11SendersMatchReference runs E11's SM and chain instances at 30
// seeds through the wiring and with the reference senders: the same
// messages delivered in the same order, the same outcomes and traffic.
func TestE11SendersMatchReference(t *testing.T) {
	for r := 0; r < 30; r++ {
		seed := Seed + int64(1100+r)
		for _, chain := range []bool{false, true} {
			if err := diffE11(t, seed, chain, simtest.Mutant{}); err != nil {
				t.Fatalf("seed %d chain=%v: %v", seed, chain, err)
			}
		}
	}
}

// TestE11DifferentialCatchesAPlantedByte: the reference SM sender sends
// its round-1 value to P_2 with one byte flipped, and the differential
// names that message.
func TestE11DifferentialCatchesAPlantedByte(t *testing.T) {
	m := simtest.Mutant{Node: 0, Round: 1, Msg: 1}
	m.Caught(t, diffE11(t, Seed+1100, false, m))
}

package experiments

import (
	"cmp"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// The two hand-rolled mixed-key senders E11 ran before its senders became
// the correct SM and chain senders, kept as their oracles.

// refMixedSMSender signs v with key one toward P_1 and u with key two
// toward everyone else, over KindSigned.
func refMixedSMSender(faces *adversary.KeyFaces, cfg model.Config, v, u []byte) sim.Process {
	return sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round != 1 {
			return nil
		}
		var out []model.Message
		for _, to := range cfg.Nodes() {
			if to == 0 {
				continue
			}
			value := u
			if to == 1 {
				value = v
			}
			c, err := sig.NewChain(value, faces.SignerFor(to))
			if err != nil {
				panic(err)
			}
			out = append(out, model.Message{To: to, Kind: model.KindSigned, Payload: c.Marshal()})
		}
		return out
	})
}

// refMixedChainSender starts the FD chain signed with key one.
func refMixedChainSender(faces *adversary.KeyFaces, v []byte) sim.Process {
	return sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round != 1 {
			return nil
		}
		c, err := sig.NewChain(v, faces.SignerFor(1))
		if err != nil {
			panic(err)
		}
		return []model.Message{{To: 1, Kind: model.KindChainValue, Payload: c.Marshal()}}
	})
}

// diffE11 runs E11's SM run, or its chain run, at seed twice: with its
// sender under m and with the reference sender. It returns the first
// divergence in the messages delivered, in delivery order, or in the
// report.
func diffE11(t *testing.T, seed int64, chain bool, m simtest.Mutant) error {
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	faces, err := adversary.NewKeyFaces(scheme, sim.SeededReader(seed), model.NewNodeSet(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg, v, u := model.Config{N: 4, T: 1}, []byte("v"), []byte("u")
	smSender, chainSender := e11Senders(cfg, faces, v, u)
	sender, ref, opts := smSender, refMixedSMSender(faces, cfg, v, u), []core.RunOption{core.WithProtocol(core.ProtocolSM)}
	if chain {
		sender, ref, opts = chainSender, refMixedChainSender(faces, v), nil
	}
	run := func(sender sim.Process) ([]model.Message, core.Report) {
		rec := &sim.RecordingTracer{}
		c, err := core.New(cfg, core.WithSeed(seed), core.WithTracer(rec))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.EstablishAuthentication(core.WithWrappedProcess(0, faces.Wrap)); err != nil {
			t.Fatal(err)
		}
		rep, err := c.RunFailureDiscovery(nil, append(opts, core.WithProcess(0, sender))...)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Messages(), rep
	}
	gotMsgs, gotRep := run(m.Wrap(0, sender))
	wantMsgs, wantRep := run(ref)
	return cmp.Or(simtest.Traffic(gotMsgs, wantMsgs, false), simtest.Equal("report", gotRep, wantRep))
}

// TestE11SendersMatchReference runs E11's SM and chain runs at 30 seeds
// with its senders and with the reference senders: the same messages
// delivered in the same order, and the same reports.
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

// TestE11DifferentialCatchesAPlantedByte: E11's SM sender sends its
// round-1 value to P_2 with one byte flipped, and the differential names
// that message.
func TestE11DifferentialCatchesAPlantedByte(t *testing.T) {
	m := simtest.Mutant{Node: 0, Round: 1, Msg: 1}
	m.Caught(t, diffE11(t, Seed+1100, false, m))
}

package experiments

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
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

// TestE11SendersMatchReference runs E11's SM and chain runs at 30 seeds
// with its senders and with the reference senders: the same messages
// delivered in the same order, and the same reports.
func TestE11SendersMatchReference(t *testing.T) {
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.Config{N: 4, T: 1}
	v, u := []byte("v"), []byte("u")
	for r := 0; r < 30; r++ {
		seed := Seed + int64(1100+r)
		faces, err := adversary.NewKeyFaces(scheme, sim.SeededReader(seed), model.NewNodeSet(1))
		if err != nil {
			t.Fatal(err)
		}
		run := func(sender sim.Process, opts ...core.RunOption) ([]model.Message, core.Report) {
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
		smSender, chainSender := e11Senders(cfg, faces, v, u)
		for _, tc := range []struct {
			name      string
			got, want sim.Process
			opts      []core.RunOption
		}{
			{"sm", smSender, refMixedSMSender(faces, cfg, v, u), []core.RunOption{core.WithProtocol(core.ProtocolSM)}},
			{"chain", chainSender, refMixedChainSender(faces, v), nil},
		} {
			gotMsgs, gotRep := run(tc.got, tc.opts...)
			wantMsgs, wantRep := run(tc.want, tc.opts...)
			if !reflect.DeepEqual(gotMsgs, wantMsgs) {
				t.Fatalf("seed %d %s: delivered %v, reference %v", seed, tc.name, gotMsgs, wantMsgs)
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("seed %d %s: report %v, reference %v", seed, tc.name, gotRep, wantRep)
			}
		}
	}
}

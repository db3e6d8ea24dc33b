package service

import (
	"reflect"
	"testing"

	"repro/internal/ba"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sig"
	"repro/internal/sim"
)

// signingDriver is a driver written outside internal/protocol that
// implements only the four Driver methods. It declares that it signs,
// so RunInstance hands it established authentication — it runs SM(t)
// over the keys each node distributed — and it has no way to prepare,
// or skip, setup of its own. (It is registered here rather than in
// campaign's tests because campaign's invariance grid runs every
// registered driver.)
type signingDriver struct{}

func (signingDriver) Name() string { return "test-signing" }
func (signingDriver) Capabilities() protocol.Capabilities {
	return protocol.Capabilities{UsesSignatures: true}
}
func (signingDriver) Verdicts() protocol.VerdictProfile { return protocol.VerdictsAgreement }

func (signingDriver) Run(inst protocol.Instance, c *core.Cluster) (protocol.Outcome, error) {
	value := []byte("signed")
	rounds := ba.SMEngineRounds(inst.T)
	rep, honest, err := protocol.RunNodes(inst, c, "test-signing", rounds, func(id model.NodeID) (sim.Process, error) {
		kd := c.Nodes()[id]
		var opts []ba.SMOption
		if id == ba.Sender {
			opts = append(opts, ba.WithSMValue(value))
		}
		return ba.NewSMNode(c.Config(), id, kd.Signer(), kd.Directory(), opts...)
	})
	if err != nil {
		return protocol.Outcome{}, err
	}
	var outcomes []model.Outcome
	for _, p := range honest {
		if p != nil {
			outcomes = append(outcomes, p.(*ba.SMNode).Outcome())
		}
	}
	_, agreed := model.AgreedValue(outcomes)
	return protocol.Outcome{
		Rounds:     rep.Rounds,
		RoundBound: rounds,
		Snapshot:   rep.Snapshot,
		Agreed:     agreed,
		SubRuns:    []protocol.SubRun{{Sender: ba.Sender, Initial: value, Outcomes: outcomes}},
	}, nil
}

func init() { protocol.Register(signingDriver{}) }

// The one setup step serves a driver from outside as it serves the
// built-in ones: over one store, the signing driver pays exactly one
// handshake per (scheme, n, keySeed) cell, and every run over the store
// equals a fresh run.
func TestFourMethodDriverPaysOneMissPerCell(t *testing.T) {
	store := protocol.NewSetupCache(0)
	sizes, seeds := []int{4, 5}, 3
	for _, n := range sizes {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			inst := campaign.Instance{Protocol: "test-signing", N: n, T: 1, Scheme: sig.SchemeToy,
				Adversary: campaign.AdvNone, Seed: seed, KeySeed: 7}
			got := campaign.RunInstanceWith(inst, store)
			if got.Err != "" || !got.Agreed || got.Conformance == nil || !got.Conformance.Conformant() {
				t.Fatalf("n=%d seed %d over the store: %+v", n, seed, got)
			}
			if fresh := campaign.RunInstanceWith(inst, nil); !reflect.DeepEqual(got, fresh) {
				t.Errorf("n=%d seed %d: run over the store differs from a fresh run:\n got %+v\nwant %+v", n, seed, got, fresh)
			}
		}
	}
	if hits, misses := store.Stats(); misses != len(sizes) || hits != len(sizes)*(seeds-1) {
		t.Errorf("%d handshakes and %d hits; want one per cell (%d) and %d", misses, hits, len(sizes), len(sizes)*(seeds-1))
	}
}

package adversary

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
)

// The three hand-written failure-discovery attackers that Resign,
// WrongName and LyingEcho replaced, kept verbatim as the oracles their
// filter forms are checked against (keydist_ref_test.go runs both).

// refResignRelay is a faulty relay that discards the incoming chain and
// starts a fresh chain over its own value, signed only by itself. The
// replacement lacks the signatures of P_0 … P_{i-1}, so the next hop's
// sub-message check (Fig. 2's "check the signatures of the message and
// the submessages") rejects it.
type refResignRelay struct {
	id     model.NodeID
	cfg    model.Config
	signer sig.Signer
	value  []byte
}

// newRefResignRelay builds the chain-replacing relay.
func newRefResignRelay(cfg model.Config, id model.NodeID, signer sig.Signer, value []byte) *refResignRelay {
	return &refResignRelay{id: id, cfg: cfg, signer: signer, value: value}
}

// Step implements sim.Process.
func (a *refResignRelay) Step(round int, received []model.Message) []model.Message {
	if round != int(a.id)+1 {
		return nil
	}
	chain, err := sig.NewChain(a.value, a.signer)
	if err != nil {
		panic(fmt.Sprintf("adversary: resign: %v", err))
	}
	// Pad the chain with self-extensions so the LENGTH matches what the
	// next hop expects; only the signer identities are wrong, isolating
	// the sub-message check as the detecting mechanism.
	for len(chainSigners(chain, a.id)) < int(a.id)+1 {
		chain, err = chain.Extend(a.id, a.signer)
		if err != nil {
			panic(fmt.Sprintf("adversary: pad chain: %v", err))
		}
	}
	next := a.id + 1
	if int(a.id) == a.cfg.T {
		var out []model.Message
		for j := a.cfg.T + 1; j < a.cfg.N; j++ {
			out = append(out, model.Message{To: model.NodeID(j), Kind: model.KindChainValue, Payload: chain.Marshal()})
		}
		return out
	}
	return []model.Message{{To: next, Kind: model.KindChainValue, Payload: chain.Marshal()}}
}

// Finished implements sim.Finisher.
func (a *refResignRelay) Finished() bool { return true }

func chainSigners(c sig.Chain, sender model.NodeID) []model.NodeID {
	return c.Signers(sender)
}

// refLyingEchoer is a faulty echoer for the NON-authenticated baseline: it
// echoes the true value to some nodes and a forged value to the victims.
// Without signatures nothing stops the lie itself; the victims discover
// the mismatch against the sender's value, which is why the baseline
// needs t echoers and O(n·t) messages to begin with.
type refLyingEchoer struct {
	id      model.NodeID
	cfg     model.Config
	forged  []byte
	victims model.NodeSet
	got     []byte
}

// newRefLyingEchoer builds the echoer; victims receive forged instead of the
// received value.
func newRefLyingEchoer(cfg model.Config, id model.NodeID, forged []byte, victims model.NodeSet) *refLyingEchoer {
	return &refLyingEchoer{id: id, cfg: cfg, forged: forged, victims: victims}
}

// Step implements sim.Process.
func (a *refLyingEchoer) Step(round int, received []model.Message) []model.Message {
	for _, m := range received {
		if m.Kind == model.KindPlainValue && m.From == fd.Sender {
			a.got = append([]byte(nil), m.Payload...)
		}
	}
	if round != 2 {
		return nil
	}
	truth := a.got
	if truth == nil {
		truth = a.forged
	}
	out := make([]model.Message, 0, a.cfg.N-1)
	for _, to := range a.cfg.Nodes() {
		if to == a.id {
			continue
		}
		payload := truth
		if a.victims.Contains(to) {
			payload = a.forged
		}
		out = append(out, model.Message{To: to, Kind: model.KindEcho, Payload: payload})
	}
	return out
}

// Finished implements sim.Finisher.
func (a *refLyingEchoer) Finished() bool { return true }

// refWrongNameRelay extends the chain correctly except that it embeds a
// WRONG assignee name for its predecessor — the exact misbehaviour the
// "signed together with the name of the node it is assigned to" rule
// exists to expose (Theorem 4's sub-message assignment check).
type refWrongNameRelay struct {
	id        model.NodeID
	cfg       model.Config
	signer    sig.Signer
	wrongName model.NodeID
}

// newRefWrongNameRelay builds the relay; it attributes the received chain to
// wrongName instead of its true predecessor.
func newRefWrongNameRelay(cfg model.Config, id model.NodeID, signer sig.Signer, wrongName model.NodeID) *refWrongNameRelay {
	return &refWrongNameRelay{id: id, cfg: cfg, signer: signer, wrongName: wrongName}
}

// Step implements sim.Process.
func (a *refWrongNameRelay) Step(round int, received []model.Message) []model.Message {
	if round != int(a.id)+1 {
		return nil
	}
	for _, m := range received {
		if m.Kind != model.KindChainValue {
			continue
		}
		chain, err := sig.UnmarshalChain(m.Payload)
		if err != nil {
			continue
		}
		ext, err := chain.Extend(a.wrongName, a.signer)
		if err != nil {
			continue
		}
		if int(a.id) == a.cfg.T {
			var out []model.Message
			for j := a.cfg.T + 1; j < a.cfg.N; j++ {
				out = append(out, model.Message{To: model.NodeID(j), Kind: model.KindChainValue, Payload: ext.Marshal()})
			}
			return out
		}
		return []model.Message{{To: a.id + 1, Kind: model.KindChainValue, Payload: ext.Marshal()}}
	}
	return nil
}

// Finished implements sim.Finisher.
func (a *refWrongNameRelay) Finished() bool { return true }

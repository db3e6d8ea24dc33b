package adversary

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
)

// Adversaries against the failure-discovery protocols. They probe F1–F3
// (paper §4) and Theorem 4's discovery guarantee. Each either fails to
// affect correct nodes' agreement or provably causes some correct node to
// discover a failure — that dichotomy is what experiments E6/E7 measure.

// EquivocatingSender is a faulty P_0 for the chain protocol: it signs a
// second value and starts a second chain. In the chain protocol P_0 sends
// to a single successor, so equivocation necessarily surfaces as a
// duplicate message at P_1 — a deviation P_1 discovers. With t = 0 the
// sender disseminates directly and can split the tail between two values;
// that needs t ≥ 1 to be tolerated, which is exactly the fault bound's
// job.
type EquivocatingSender struct {
	cfg    model.Config
	signer sig.Signer
	v1, v2 []byte
	// faceOne holds the recipients shown v1 in the t=0 dissemination case;
	// everyone else is shown v2.
	faceOne model.NodeSet
}

// NewEquivocatingSenderFaces builds the faulty sender; in the t=0 split
// faceOne receives v1, its complement v2.
func NewEquivocatingSenderFaces(cfg model.Config, signer sig.Signer, v1, v2 []byte, faceOne model.NodeSet) *EquivocatingSender {
	return &EquivocatingSender{cfg: cfg, signer: signer, v1: v1, v2: v2, faceOne: faceOne}
}

// Step implements sim.Process.
func (a *EquivocatingSender) Step(round int, _ []model.Message) []model.Message {
	if round != 1 {
		return nil
	}
	c1, err := sig.NewChain(a.v1, a.signer)
	if err != nil {
		panic(fmt.Sprintf("adversary: sign v1: %v", err))
	}
	c2, err := sig.NewChain(a.v2, a.signer)
	if err != nil {
		panic(fmt.Sprintf("adversary: sign v2: %v", err))
	}
	if a.cfg.T == 0 {
		// Disseminate a split: some tail nodes get v1, others v2.
		out := make([]model.Message, 0, a.cfg.N-1)
		for _, to := range a.cfg.Nodes() {
			if to == fd.Sender {
				continue
			}
			payload := c1.Marshal()
			if !a.faceOne.Contains(to) {
				payload = c2.Marshal()
			}
			out = append(out, model.Message{To: to, Kind: model.KindChainValue, Payload: payload})
		}
		return out
	}
	// With relays, both chains must pass through P_1: the duplicate is the
	// deviation P_1 discovers.
	return []model.Message{
		{To: fd.Sender + 1, Kind: model.KindChainValue, Payload: c1.Marshal()},
		{To: fd.Sender + 1, Kind: model.KindChainValue, Payload: c2.Marshal()},
	}
}

// Finished implements sim.Finisher.
func (a *EquivocatingSender) Finished() bool { return true }

// ResignRelay is a faulty relay that discards the incoming chain and
// starts a fresh chain over its own value, signed only by itself. The
// replacement lacks the signatures of P_0 … P_{i-1}, so the next hop's
// sub-message check (Fig. 2's "check the signatures of the message and
// the submessages") rejects it.
type ResignRelay struct {
	id     model.NodeID
	cfg    model.Config
	signer sig.Signer
	value  []byte
}

// NewResignRelay builds the chain-replacing relay.
func NewResignRelay(cfg model.Config, id model.NodeID, signer sig.Signer, value []byte) *ResignRelay {
	return &ResignRelay{id: id, cfg: cfg, signer: signer, value: value}
}

// Step implements sim.Process.
func (a *ResignRelay) Step(round int, received []model.Message) []model.Message {
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
func (a *ResignRelay) Finished() bool { return true }

func chainSigners(c *sig.Chain, sender model.NodeID) []model.NodeID {
	return c.Signers(sender)
}

// LyingEchoer is a faulty echoer for the NON-authenticated baseline: it
// echoes the true value to some nodes and a forged value to the victims.
// Without signatures nothing stops the lie itself; the victims discover
// the mismatch against the sender's value, which is why the baseline
// needs t echoers and O(n·t) messages to begin with.
type LyingEchoer struct {
	id      model.NodeID
	cfg     model.Config
	forged  []byte
	victims model.NodeSet
	got     []byte
}

// NewLyingEchoer builds the echoer; victims receive forged instead of the
// received value.
func NewLyingEchoer(cfg model.Config, id model.NodeID, forged []byte, victims model.NodeSet) *LyingEchoer {
	return &LyingEchoer{id: id, cfg: cfg, forged: forged, victims: victims}
}

// Step implements sim.Process.
func (a *LyingEchoer) Step(round int, received []model.Message) []model.Message {
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
func (a *LyingEchoer) Finished() bool { return true }

// EquivocatingPlainSender is a faulty sender for the non-authenticated
// baseline: it broadcasts v1 to some nodes and v2 to the rest. Any
// correct echoer rebroadcasts what it got, so some correct node sees a
// mismatch and discovers — unless every echoer is faulty, in which case
// the sender plus echoers exceed the fault bound.
type EquivocatingPlainSender struct {
	cfg     model.Config
	v1, v2  []byte
	faceOne model.NodeSet
}

// NewEquivocatingPlainSenderFaces builds the faulty sender: faceOne
// receives v1, its complement v2.
func NewEquivocatingPlainSenderFaces(cfg model.Config, v1, v2 []byte, faceOne model.NodeSet) *EquivocatingPlainSender {
	return &EquivocatingPlainSender{cfg: cfg, v1: v1, v2: v2, faceOne: faceOne}
}

// Step implements sim.Process.
func (a *EquivocatingPlainSender) Step(round int, _ []model.Message) []model.Message {
	if round != 1 {
		return nil
	}
	out := make([]model.Message, 0, a.cfg.N-1)
	for _, to := range a.cfg.Nodes() {
		if to == fd.Sender {
			continue
		}
		payload := a.v1
		if !a.faceOne.Contains(to) {
			payload = a.v2
		}
		out = append(out, model.Message{To: to, Kind: model.KindPlainValue, Payload: payload})
	}
	return out
}

// Finished implements sim.Finisher.
func (a *EquivocatingPlainSender) Finished() bool { return true }

// WrongNameRelay extends the chain correctly except that it embeds a
// WRONG assignee name for its predecessor — the exact misbehaviour the
// "signed together with the name of the node it is assigned to" rule
// exists to expose (Theorem 4's sub-message assignment check).
type WrongNameRelay struct {
	id        model.NodeID
	cfg       model.Config
	signer    sig.Signer
	wrongName model.NodeID
}

// NewWrongNameRelay builds the relay; it attributes the received chain to
// wrongName instead of its true predecessor.
func NewWrongNameRelay(cfg model.Config, id model.NodeID, signer sig.Signer, wrongName model.NodeID) *WrongNameRelay {
	return &WrongNameRelay{id: id, cfg: cfg, signer: signer, wrongName: wrongName}
}

// Step implements sim.Process.
func (a *WrongNameRelay) Step(round int, received []model.Message) []model.Message {
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
func (a *WrongNameRelay) Finished() bool { return true }

// EquivocatingSignedSender is a faulty P_0 for the signed-messages
// agreement protocol SM(t): in round 1 it signs two values and broadcasts
// one face to faceOne and the other to everyone else. Correct receivers
// relay whichever chain they saw, so every correct node's extracted set V
// ends up holding both values and choice(V) falls through to the default
// — SM's documented answer to sender equivocation. The sender then plays
// no further part (a faulty node owes the protocol nothing).
type EquivocatingSignedSender struct {
	cfg     model.Config
	signer  sig.Signer
	v1, v2  []byte
	faceOne model.NodeSet
}

// NewEquivocatingSignedSenderFaces builds the two-faced SM(t) sender:
// faceOne receives v1, its complement v2.
func NewEquivocatingSignedSenderFaces(cfg model.Config, signer sig.Signer, v1, v2 []byte, faceOne model.NodeSet) *EquivocatingSignedSender {
	return &EquivocatingSignedSender{cfg: cfg, signer: signer, v1: v1, v2: v2, faceOne: faceOne}
}

// Step implements sim.Process.
func (a *EquivocatingSignedSender) Step(round int, _ []model.Message) []model.Message {
	if round != 1 {
		return nil
	}
	c1, err := sig.NewChain(a.v1, a.signer)
	if err != nil {
		panic(fmt.Sprintf("adversary: sign v1: %v", err))
	}
	c2, err := sig.NewChain(a.v2, a.signer)
	if err != nil {
		panic(fmt.Sprintf("adversary: sign v2: %v", err))
	}
	p1, p2 := c1.Marshal(), c2.Marshal()
	out := make([]model.Message, 0, a.cfg.N-1)
	for _, to := range a.cfg.Nodes() {
		if to == fd.Sender {
			continue
		}
		payload := p1
		if !a.faceOne.Contains(to) {
			payload = p2
		}
		out = append(out, model.Message{To: to, Kind: model.KindSigned, Payload: payload})
	}
	return out
}

// Finished implements sim.Finisher.
func (a *EquivocatingSignedSender) Finished() bool { return true }

package protocol

// The three hand-written two-faced senders as they stood before every
// driver's equivocator became its correct sender under filters, kept
// verbatim as the oracles of TestEquivocationMatchesReference: names
// take a ref prefix, package adversary's comments stay as written.

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
)

// refEquivocatingSender is a faulty P_0 for the chain protocol: it signs a
// second value and starts a second chain. In the chain protocol P_0 sends
// to a single successor, so equivocation necessarily surfaces as a
// duplicate message at P_1 — a deviation P_1 discovers. With t = 0 the
// sender disseminates directly and can split the tail between two values;
// that needs t ≥ 1 to be tolerated, which is exactly the fault bound's
// job.
type refEquivocatingSender struct {
	cfg    model.Config
	signer sig.Signer
	v1, v2 []byte
	// faceOne holds the recipients shown v1 in the t=0 dissemination case;
	// everyone else is shown v2.
	faceOne model.NodeSet
}

// newRefEquivocatingSenderFaces builds the faulty sender; in the t=0 split
// faceOne receives v1, its complement v2.
func newRefEquivocatingSenderFaces(cfg model.Config, signer sig.Signer, v1, v2 []byte, faceOne model.NodeSet) *refEquivocatingSender {
	return &refEquivocatingSender{cfg: cfg, signer: signer, v1: v1, v2: v2, faceOne: faceOne}
}

// Step implements sim.Process.
func (a *refEquivocatingSender) Step(round int, _ []model.Message) []model.Message {
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
func (a *refEquivocatingSender) Finished() bool { return true }

// refEquivocatingPlainSender is a faulty sender for the non-authenticated
// baseline: it broadcasts v1 to some nodes and v2 to the rest. Any
// correct echoer rebroadcasts what it got, so some correct node sees a
// mismatch and discovers — unless every echoer is faulty, in which case
// the sender plus echoers exceed the fault bound.
type refEquivocatingPlainSender struct {
	cfg     model.Config
	v1, v2  []byte
	faceOne model.NodeSet
}

// newRefEquivocatingPlainSenderFaces builds the faulty sender: faceOne
// receives v1, its complement v2.
func newRefEquivocatingPlainSenderFaces(cfg model.Config, v1, v2 []byte, faceOne model.NodeSet) *refEquivocatingPlainSender {
	return &refEquivocatingPlainSender{cfg: cfg, v1: v1, v2: v2, faceOne: faceOne}
}

// Step implements sim.Process.
func (a *refEquivocatingPlainSender) Step(round int, _ []model.Message) []model.Message {
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
func (a *refEquivocatingPlainSender) Finished() bool { return true }

// refEquivocatingSignedSender is a faulty P_0 for the signed-messages
// agreement protocol SM(t): in round 1 it signs two values and broadcasts
// one face to faceOne and the other to everyone else. Correct receivers
// relay whichever chain they saw, so every correct node's extracted set V
// ends up holding both values and choice(V) falls through to the default
// — SM's documented answer to sender equivocation. The sender then plays
// no further part (a faulty node owes the protocol nothing).
type refEquivocatingSignedSender struct {
	cfg     model.Config
	signer  sig.Signer
	v1, v2  []byte
	faceOne model.NodeSet
}

// newRefEquivocatingSignedSenderFaces builds the two-faced SM(t) sender:
// faceOne receives v1, its complement v2.
func newRefEquivocatingSignedSenderFaces(cfg model.Config, signer sig.Signer, v1, v2 []byte, faceOne model.NodeSet) *refEquivocatingSignedSender {
	return &refEquivocatingSignedSender{cfg: cfg, signer: signer, v1: v1, v2: v2, faceOne: faceOne}
}

// Step implements sim.Process.
func (a *refEquivocatingSignedSender) Step(round int, _ []model.Message) []model.Message {
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
func (a *refEquivocatingSignedSender) Finished() bool { return true }

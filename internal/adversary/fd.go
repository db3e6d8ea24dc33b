package adversary

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Adversaries against the failure-discovery protocols (F1–F3, paper §4;
// Theorem 4): each leaves correct nodes agreeing or makes one discover a
// failure, the dichotomy E6/E7 measure. Resign and WrongName are the
// strategy behaviors resign and wrong-name, which the protocol wiring
// stacks with the rest; LyingEcho goes to core.WithWrappedProcess.

// Resign silences relay id of Fig. 2 and, in its round, sends in its
// place a fresh chain over value signed by signer alone, padded with
// self-extensions to the length the next hop expects: only the signer
// identities are wrong, isolating the sub-message check as the detecting
// mechanism.
func Resign(cfg model.Config, id model.NodeID, signer sig.Signer, value []byte) Filter {
	chain, err := sig.NewChain(value, signer)
	for err == nil && chain.Len() <= int(id) {
		chain, err = chain.Extend(id, signer)
	}
	if err != nil {
		panic(fmt.Sprintf("adversary: resign: %v", err))
	}
	var sends []model.Message
	for _, q := range cfg.Nodes()[id+1:] {
		if q == id+1 || int(id) == cfg.T {
			sends = append(sends, model.Message{To: q, Kind: model.KindChainValue, Payload: chain.Marshal()})
		}
	}
	inject := InjectAt(int(id)+1, sends...)
	return func(round int, in, _ []model.Message) []model.Message { return inject(round, in, nil) }
}

// WrongName re-signs a relay's outgoing chain naming wrongName, not its
// true predecessor, as the assignee of the chain it received — the exact
// misbehaviour the "signed together with the name of the node it is
// assigned to" rule exists to expose (Theorem 4's assignment check).
func WrongName(signer sig.Signer, wrongName model.NodeID) Filter {
	return TamperPayload(model.KindChainValue, func(payload []byte) []byte {
		chain, err := sig.UnmarshalChain(payload)
		if err == nil && chain.Len() > 1 {
			if chain, err = chain.Inner().Extend(wrongName, signer); err == nil {
				return chain.Marshal()
			}
		}
		return payload
	})
}

// LyingEcho makes echoer id of the NON-authenticated baseline echo forged
// to the victims, and to everyone when it has nothing to echo. Without
// signatures nothing stops the lie itself; the victims discover the
// mismatch against the sender's value, which is why the baseline needs t
// echoers and O(n·t) messages to begin with.
func LyingEcho(cfg model.Config, id model.NodeID, forged []byte, victims model.NodeSet) func(sim.Process) sim.Process {
	truthful := model.NewNodeSet()
	for _, q := range cfg.Nodes() {
		if !victims.Contains(q) {
			truthful.Add(q)
		}
	}
	orForged := func(round int, _, out []model.Message) []model.Message {
		if round == 2 && len(out) == 0 {
			return model.AppendBroadcast(out, cfg.N, id, model.KindEcho, forged)
		}
		return out
	}
	return func(p sim.Process) sim.Process {
		return Wrap(p, orForged, TwoFaced(truthful, func([]byte) []byte { return forged }))
	}
}

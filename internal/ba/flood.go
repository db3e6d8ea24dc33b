package ba

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/sig"
)

// signedFlood is one node's side of the signed-message flood of Lamport,
// Shostak & Pease, which SM(t) runs from round 1 and FDBA's fallback runs
// over FD evidence. It has two steps: open signs a value and broadcasts
// it; relay applies the acceptance rule, in which a chain of h distinct
// signatures arrives only in hop-round h and is extended and relayed to
// every node not yet among its signers while h ≤ t. The owner brings only
// its admit rule, and keeps in held the values it holds, so a chain
// carrying one is dropped before it is parsed.
type signedFlood struct {
	id     model.NodeID
	cfg    model.Config
	signer sig.Signer
	dir    sig.Directory
	kind   model.MessageKind
	// held is keyed by chain value: SM's V, FDBA's seen evidence.
	held map[string]bool
	// signers is VerifyTo's buffer: a chain's signers are read only
	// until the next chain is verified.
	signers []model.NodeID
}

func newSignedFlood(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, kind model.MessageKind) signedFlood {
	return signedFlood{id: id, cfg: cfg, signer: signer, dir: dir, kind: kind, held: make(map[string]bool)}
}

// open appends to out the broadcast of value, signed by this node.
func (f *signedFlood) open(out []model.Message, value []byte) []model.Message {
	chain, err := sig.NewChain(value, f.signer)
	if err != nil {
		panic(fmt.Sprintf("ba: %v signing flood value: %v", f.id, err))
	}
	return model.AppendBroadcast(slices.Grow(out, f.cfg.N-1), f.cfg.N, f.id, f.kind, chain.Marshal())
}

// relay appends to out the relays of hop-round hop's inbox. Each message
// of the flood's kind is, in order: dropped if it carries a held value,
// before parsing; dropped unless its chain has hop signatures, 1 ≤ hop ≤
// t+1; verified under this node's own directory; dropped unless its
// signers are distinct and exclude this node; offered to admit; and, if
// admitted and hop ≤ t, extended and relayed to every non-signer.
func (f *signedFlood) relay(out []model.Message, hop int, received []model.Message, admit func(value []byte, signers []model.NodeID) bool) []model.Message {
	for _, m := range received {
		if m.Kind != f.kind {
			continue
		}
		if v, ok := sig.PeekChainValue(m.Payload); !ok || f.held[string(v)] {
			continue
		}
		chain, err := sig.UnmarshalChain(m.Payload)
		if err != nil || chain.Len() != hop || hop < 1 || hop > f.cfg.T+1 {
			continue // malformed, or late: a late chain would inject a value at the last moment
		}
		signers, err := chain.VerifyTo(f.signers[:0], m.From, f.dir)
		f.signers = signers
		if err != nil || !distinctValid(signers, f.cfg.N) || containsID(signers, f.id) {
			continue
		}
		if !admit(chain.Value(), signers) || hop > f.cfg.T {
			continue // refused, or a full chain everyone correct already has
		}
		ext, err := chain.Extend(m.From, f.signer)
		if err != nil {
			panic(fmt.Sprintf("ba: %v extending flood chain: %v", f.id, err))
		}
		payload := ext.Marshal()
		out = slices.Grow(out, f.cfg.N-1-hop)
		for q := 0; q < f.cfg.N; q++ {
			if to := model.NodeID(q); to != f.id && !containsID(signers, to) {
				out = append(out, model.Message{To: to, Kind: f.kind, Payload: payload})
			}
		}
	}
	return out
}

// distinctValid reports whether ids are pairwise distinct and in range.
func distinctValid(ids []model.NodeID, n int) bool {
	for i, id := range ids {
		if !id.Valid(n) || containsID(ids[:i], id) {
			return false
		}
	}
	return true
}

func containsID(ids []model.NodeID, id model.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

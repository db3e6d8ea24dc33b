package fd_test

import (
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// TestDiscoveryTextPinned pins the printed form of every discovery the
// fd nodes make, byte for byte: each case steps one node through a
// scripted view at n=4, t=1 and reads Discovery.String. The texts were
// produced by the eagerly formatted discoveries this package used to
// build; a discovery now keeps its facts and formats them when read.
func TestDiscoveryTextPinned(t *testing.T) {
	f := newFixture(t, 4, 1, 46)
	value := []byte("v")
	chainFrom := func(signer int, value []byte) sig.Chain {
		c, err := sig.NewChain(value, f.signers[signer])
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	extend := func(c sig.Chain, from model.NodeID, signer int) sig.Chain {
		next, err := c.Extend(from, f.signers[signer])
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	badSig := append([]byte(nil), chainFrom(0, value).Marshal()...)
	badSig[len(badSig)-1] ^= 1

	chainNode := func(id model.NodeID, dir sig.Directory) node {
		n, err := fd.NewChainNode(f.cfg, id, f.signers[id], dir)
		if err != nil {
			t.Fatal(err)
		}
		return node{n, func() model.Outcome { return n.Outcome() }}
	}
	smallRange := func(id model.NodeID) node {
		n, err := fd.NewSmallRangeNode(f.cfg, id, f.signers[id], f.dirs[id])
		if err != nil {
			t.Fatal(err)
		}
		return node{n, func() model.Outcome { return n.Outcome() }}
	}
	vector := func(id model.NodeID) node {
		n, err := fd.NewVectorNode(f.cfg, id, f.signers[id], f.dirs[id], value)
		if err != nil {
			t.Fatal(err)
		}
		return node{n, func() model.Outcome { return n.Outcome(0) }}
	}
	nonAuth := func(id model.NodeID) node {
		n, err := fd.NewNonAuthNode(f.cfg, id)
		if err != nil {
			t.Fatal(err)
		}
		return node{n, func() model.Outcome { return n.Outcome() }}
	}
	msg := func(round int, from model.NodeID, kind model.MessageKind, payload []byte) model.Message {
		return model.Message{From: from, Round: round, Kind: kind, Payload: payload}
	}
	long := []byte("a value well past sixteen bytes")

	for _, c := range []struct {
		name   string
		node   node
		rounds int
		script []model.Message
		want   string
	}{
		{"chain/unexpected", chainNode(1, f.dirs[1]), 2,
			[]model.Message{msg(2, 0, model.KindEcho, nil)},
			"P1 discovered failure in round 2: unexpected-message (echo message from P0 in round 2)"},
		{"chain/missing", chainNode(2, f.dirs[2]), 3, nil,
			"P2 discovered failure in round 3: missing-message (no chain message from P1 by round 3)"},
		{"chain/bad-format", chainNode(1, f.dirs[1]), 2,
			[]model.Message{msg(2, 0, model.KindChainValue, []byte{1, 2, 3})},
			"P1 discovered failure in round 2: bad-format (chain from P0: sig: malformed chain encoding: sig: truncated encoding: missing length prefix at offset 0)"},
		{"chain/bad-count", chainNode(1, f.dirs[1]), 2,
			[]model.Message{msg(2, 0, model.KindChainValue, extend(chainFrom(0, value), 0, 1).Marshal())},
			"P1 discovered failure in round 2: bad-chain (chain from P0 has 2 signatures, want 1)"},
		{"chain/bad-signature", chainNode(1, f.dirs[1]), 2,
			[]model.Message{msg(2, 0, model.KindChainValue, badSig)},
			"P1 discovered failure in round 2: bad-signature (chain from P0: sig: chain signature failed test predicate: layer 0 assigned to P0)"},
		{"chain/unknown-key", chainNode(1, sig.MapDirectory{}), 2,
			[]model.Message{msg(2, 0, model.KindChainValue, chainFrom(0, value).Marshal())},
			"P1 discovered failure in round 2: unknown-key (chain from P0: sig: chain layer assigned to node with no accepted predicate: layer 0 assigned to P0)"},
		{"chain/signer-order", chainNode(2, f.dirs[2]), 3,
			[]model.Message{msg(3, 1, model.KindChainValue, extend(chainFrom(3, value), 3, 1).Marshal())},
			"P2 discovered failure in round 3: bad-signature (chain from P1: sig: chain signature failed test predicate: layer 0 assigned to P3, want P0)"},
		{"smallrange/silence-value", smallRange(1), 2,
			[]model.Message{msg(2, 0, model.KindChainValue, chainFrom(0, []byte{0}).Marshal())},
			"P1 discovered failure in round 2: protocol-deviation (chain from P0 carries invalid small-range value [0])"},
		{"smallrange/non-bit", smallRange(1), 2,
			[]model.Message{msg(2, 0, model.KindChainValue, chainFrom(0, []byte("ab")).Marshal())},
			"P1 discovered failure in round 2: protocol-deviation (chain from P0 carries invalid small-range value [97 98])"},
		{"nonauth/duplicate", nonAuth(2), 3,
			[]model.Message{msg(2, 0, model.KindPlainValue, value), msg(3, 1, model.KindEcho, value), msg(3, 1, model.KindEcho, value)},
			"P2 discovered failure in round 3: unexpected-message (duplicate echo from P1)"},
		{"nonauth/unexpected", nonAuth(2), 2,
			[]model.Message{msg(2, 0, model.KindChainValue, value)},
			"P2 discovered failure in round 2: unexpected-message (chain-value message from P0 in round 2)"},
		{"nonauth/no-value-by-echo", nonAuth(1), 2, nil,
			"P1 discovered failure in round 2: missing-message (no value from sender by echo round)"},
		{"nonauth/no-value", nonAuth(2), 3, nil,
			"P2 discovered failure in round 3: missing-message (no value from sender)"},
		{"nonauth/no-echo", nonAuth(2), 3,
			[]model.Message{msg(2, 0, model.KindPlainValue, value)},
			"P2 discovered failure in round 3: missing-message (no echo from P1)"},
		{"nonauth/mismatch", nonAuth(2), 3,
			[]model.Message{msg(2, 0, model.KindPlainValue, value), msg(3, 1, model.KindEcho, long)},
			`P2 discovered failure in round 3: value-mismatch (echo from P1 is "a value well pas"… (31 bytes), value is "v")`},
		{"vector/unexpected", vector(1), 2,
			[]model.Message{msg(2, 2, model.KindEcho, nil)},
			"P1 discovered failure in round 2: unexpected-message (echo message from P2)"},
		{"vector/unparsable", vector(1), 2,
			[]model.Message{msg(2, 2, model.KindChainValue, []byte{1})},
			"P1 discovered failure in round 2: bad-format (unparsable vector payload from P2)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for r := 1; r <= c.rounds; r++ {
				var in []model.Message
				for _, m := range c.script {
					if m.Round == r {
						in = append(in, m)
					}
				}
				c.node.Step(r, in)
			}
			d := c.node.outcome().Discovery
			if d == nil {
				t.Fatalf("no discovery; outcome %v", c.node.outcome())
			}
			if got := d.String(); got != c.want {
				t.Errorf("discovery text\n got %s\nwant %s", got, c.want)
			}
		})
	}
}

// node is one scripted process and the outcome the pin reads from it.
type node struct {
	sim.Process
	outcome func() model.Outcome
}

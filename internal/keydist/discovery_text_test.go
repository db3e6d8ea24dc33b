package keydist_test

import (
	"testing"

	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// TestDiscoveryTextPinned pins the printed form of every deviation a
// keydist node records, byte for byte: P0 of four is stepped through one
// scripted view that trips each check once. The texts were produced by
// the eagerly formatted discoveries the node used to build.
func TestDiscoveryTextPinned(t *testing.T) {
	cfg := model.Config{N: 4, T: 1}
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*keydist.Node, cfg.N)
	for i := range nodes {
		if nodes[i], err = keydist.NewNode(cfg, model.NodeID(i), scheme, sim.SeededReader(sim.NodeSeed(46, i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	pred := func(i int) []byte { return nodes[i].Signer().Predicate().Bytes() }
	entropy := sim.SeededReader(7)
	respond := func(challenger, challenged model.NodeID, signer int) []byte {
		ch, err := keydist.NewChallenge(challenger, challenged, entropy)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := keydist.Respond(ch, nodes[signer].Signer())
		if err != nil {
			t.Fatal(err)
		}
		return resp.Marshal()
	}
	wrongNames, err := keydist.NewChallenge(2, 3, entropy)
	if err != nil {
		t.Fatal(err)
	}
	msg := func(from model.NodeID, kind model.MessageKind, payload []byte) model.Message {
		return model.Message{From: from, To: 0, Kind: kind, Payload: payload}
	}
	script := [][]model.Message{
		2: {
			msg(1, model.KindTestPredicate, pred(1)),
			msg(2, model.KindEcho, nil),
			msg(2, model.KindTestPredicate, []byte{1}),
			msg(3, model.KindTestPredicate, pred(3)),
			msg(3, model.KindTestPredicate, pred(3)),
		},
		3: {
			msg(1, model.KindEcho, nil),
			msg(1, model.KindChallenge, []byte{1}),
			msg(2, model.KindChallenge, wrongNames.Marshal()),
		},
		4: {
			msg(1, model.KindEcho, nil),
			msg(1, model.KindChallengeResponse, []byte{1}),
			msg(2, model.KindChallengeResponse, respond(0, 2, 2)),
			msg(1, model.KindChallengeResponse, respond(0, 1, 2)),
		},
		5: {msg(1, model.KindEcho, nil), msg(2, model.KindEcho, nil)},
	}
	for r := 1; r < len(script); r++ {
		nodes[0].Step(r, script[r])
	}
	want := []string{
		"P0 discovered failure in round 2: unexpected-message (P2 sent echo during predicate broadcast)",
		"P0 discovered failure in round 2: bad-format (unparsable predicate from P2: sig: malformed public key: ed25519 key must be 32 bytes, got 1)",
		"P0 discovered failure in round 2: unexpected-message (duplicate predicate from P3)",
		"P0 discovered failure in round 3: unexpected-message (P1 sent echo during challenge round)",
		"P0 discovered failure in round 3: bad-format (unparsable challenge from P1: keydist: malformed challenge: sig: truncated encoding: missing uint64 at offset 0)",
		"P0 discovered failure in round 3: protocol-deviation (challenge from P2 names (P2,P3))",
		"P0 discovered failure in round 4: unexpected-message (P1 sent echo during response round)",
		"P0 discovered failure in round 4: bad-format (unparsable response from P1: keydist: malformed response: sig: truncated encoding: missing uint64 at offset 0)",
		"P0 discovered failure in round 4: unexpected-message (response from unchallenged node P2)",
		"P0 discovered failure in round 4: bad-signature (response from P1: keydist: response nonce does not match challenge)",
		"P0 discovered failure in round 5: unexpected-message (2 messages outside protocol rounds)",
	}
	got := nodes[0].Discoveries()
	if len(got) != len(want) {
		t.Errorf("%d discoveries, want %d: %v", len(got), len(want), got)
	}
	for i := range min(len(got), len(want)) {
		if s := got[i].String(); s != want[i] {
			t.Errorf("discovery %d\n got %s\nwant %s", i, s, want[i])
		}
	}
}

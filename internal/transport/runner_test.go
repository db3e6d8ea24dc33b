package transport

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// junkEndpoint is a faulty node's raw access to its links. Around every
// DONE marker its runner sends it writes frames no correct runner would:
// bytes that do not decode, a message and a marker for a round already
// passed, a message and a marker for a round far past any bound, and —
// after the honest marker — one more for the same round claiming the node
// was quiet, though it sends every round.
type junkEndpoint struct{ Transport }

func (j junkEndpoint) Send(to model.NodeID, frame []byte) error {
	ftype, round, _, _, err := decodeFrame(frame)
	if err != nil || ftype != frameDone {
		return j.Transport.Send(to, frame)
	}
	const farFuture = 1 << 30
	for _, junk := range [][]byte{
		{0xff, 0x00, 0x13},
		encodeFrame(frameMessage, round-2, model.KindChainValue, []byte("stale")),
		encodeFrame(frameDone, round-2, doneQuiet, nil),
		encodeFrame(frameMessage, farFuture, model.KindChainValue, []byte("never due")),
		encodeFrame(frameDone, farFuture, doneQuiet, nil),
		frame,
		encodeFrame(frameDone, round, doneQuiet, nil),
	} {
		if err := j.Transport.Send(to, junk); err != nil {
			return err
		}
	}
	return nil
}

// TestRunnerSurvivesGarbageFrames drives junk payloads and raw junk
// frames through a real transport while correct peers run the whole
// lifecycle: the runners and decoders must neither panic, hang nor
// mis-deliver.
func TestRunnerSurvivesGarbageFrames(t *testing.T) {
	n, tol := 5, 1
	endpoints := NewMemoryMesh(n).Endpoints()
	endpoints[1] = junkEndpoint{endpoints[1]}

	// Correct nodes 0,2,3,4 run key distribution + FD; node 1 floods
	// junk payloads of a VALID frame shape in every round of both, over
	// an endpoint that adds the raw junk.
	garbage := sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		var out []model.Message
		for to := 0; to < n; to++ {
			if to == 1 {
				continue
			}
			out = append(out, model.Message{
				To:      model.NodeID(to),
				Kind:    model.MessageKind(37),
				Payload: bytes.Repeat([]byte{0xAB}, 33),
			})
		}
		return out
	})

	c, err := core.New(model.Config{N: n, T: tol}, core.WithSeed(1), core.WithEngine(MeshEngine(endpoints)))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if _, err := c.EstablishAuthentication(core.WithProcess(1, garbage)); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	for i, node := range c.Nodes() {
		if node == nil {
			continue
		}
		// Correct nodes accepted each other despite the junk.
		for j := 0; j < n; j++ {
			if j == 1 || j == i {
				continue
			}
			if _, ok := node.Directory().PredicateOf(model.NodeID(j)); !ok {
				t.Errorf("%v lost %v's key to garbage traffic", node.ID(), model.NodeID(j))
			}
		}
		if _, ok := node.Directory().PredicateOf(1); ok {
			t.Errorf("%v accepted the garbage node", node.ID())
		}
	}

	// FD run over the same mesh with node 1 still spraying junk: the
	// chain routes P0→P1→… so with P1 byzantine the chain dies — but
	// every correct node must terminate with decide-or-discover.
	rep, err := c.RunFailureDiscovery([]byte("v"), core.WithProcess(1, garbage))
	if err != nil {
		t.Fatalf("RunFailureDiscovery: %v", err)
	}
	if len(rep.Outcomes) != n-1 {
		t.Errorf("%d outcomes, want the %d correct nodes'", len(rep.Outcomes), n-1)
	}
	for _, o := range rep.Outcomes {
		if !o.Decided && o.Discovery == nil {
			t.Errorf("%v neither decided nor discovered (F1 over transport)", o.Node)
		}
	}
}

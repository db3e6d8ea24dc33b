package adversary

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// constProc sends a fixed outbox each round.
func constProc(out []model.Message) sim.Process {
	return sim.ProcessFunc(func(int, []model.Message) []model.Message {
		cp := make([]model.Message, len(out))
		copy(cp, out)
		return cp
	})
}

func TestDropAll(t *testing.T) {
	p := Wrap(constProc([]model.Message{{To: 1}}), DropAll(2))
	if got := p.Step(1, nil); len(got) != 1 {
		t.Errorf("round 1 dropped: %v", got)
	}
	if got := p.Step(2, nil); len(got) != 0 {
		t.Errorf("round 2 not dropped: %v", got)
	}
	if got := p.Step(5, nil); len(got) != 0 {
		t.Errorf("round 5 not dropped: %v", got)
	}
}

func TestDropTo(t *testing.T) {
	out := []model.Message{{To: 1}, {To: 2}, {To: 3}}
	p := Wrap(constProc(out), DropTo(model.NewNodeSet(2)))
	got := p.Step(1, nil)
	if len(got) != 2 || got[0].To != 1 || got[1].To != 3 {
		t.Errorf("DropTo result: %v", got)
	}
}

func TestTamperPayloadCopies(t *testing.T) {
	orig := []byte{0x10, 0x20}
	out := []model.Message{{To: 1, Kind: model.KindChainValue, Payload: orig}}
	p := Wrap(constProc(out), TamperPayload(model.KindChainValue, FlipByte(0)))
	got := p.Step(1, nil)
	if got[0].Payload[0] != 0x11 {
		t.Errorf("payload not flipped: %x", got[0].Payload)
	}
	if orig[0] != 0x10 {
		t.Error("original buffer mutated")
	}
	// Non-matching kinds untouched.
	out2 := []model.Message{{To: 1, Kind: model.KindEcho, Payload: []byte{9}}}
	p = Wrap(constProc(out2), TamperPayload(model.KindChainValue, FlipByte(0)))
	if got := p.Step(1, nil); got[0].Payload[0] != 9 {
		t.Error("non-matching kind tampered")
	}
}

// TwoFaced copies nothing: face one keeps the protocol's own buffer and
// everyone else gets the constant second face itself, so a two-faced
// sender costs no allocation per message.
func TestTwoFacedConstantFaceCopiesNothing(t *testing.T) {
	first, second := []byte("one"), []byte("two")
	out := []model.Message{{To: 1, Payload: first}, {To: 2, Payload: first}, {To: 3, Payload: first}}
	f := TwoFaced(model.NewNodeSet(0, 1), func([]byte) []byte { return second })
	got := f(1, nil, out)
	if &got[0].Payload[0] != &first[0] || &got[1].Payload[0] != &second[0] || &got[2].Payload[0] != &second[0] {
		t.Errorf("faces = %q %q %q, want the first buffer then the constant twice", got[0].Payload, got[1].Payload, got[2].Payload)
	}
	if allocs := testing.AllocsPerRun(100, func() { f(1, nil, out) }); allocs != 0 {
		t.Errorf("TwoFaced allocates %v per outbox", allocs)
	}
}

func TestFlipByteEmpty(t *testing.T) {
	if got := FlipByte(3)(nil); got != nil {
		t.Errorf("FlipByte(nil) = %v", got)
	}
}

func TestDuplicateTo(t *testing.T) {
	out := []model.Message{{To: 1, Payload: []byte("x")}}
	p := Wrap(constProc(out), FloodTo([]model.NodeID{4}))
	got := p.Step(1, nil)
	if len(got) != 2 || got[1].To != 4 || !bytes.Equal(got[1].Payload, []byte("x")) {
		t.Errorf("FloodTo result: %v", got)
	}
}

func TestInjectAt(t *testing.T) {
	extra := model.Message{To: 2, Kind: model.KindFault}
	p := Wrap(constProc(nil), InjectAt(3, extra))
	if got := p.Step(2, nil); len(got) != 0 {
		t.Errorf("injected early: %v", got)
	}
	if got := p.Step(3, nil); len(got) != 1 || got[0].Kind != model.KindFault {
		t.Errorf("not injected at 3: %v", got)
	}
}

func TestFiltersCompose(t *testing.T) {
	out := []model.Message{{To: 1}, {To: 2}}
	p := Wrap(constProc(out),
		DropTo(model.NewNodeSet(1)),
		FloodTo([]model.NodeID{3}),
	)
	got := p.Step(1, nil)
	// After DropTo: [{To:2}]; after FloodTo: [{To:2},{To:3}].
	if len(got) != 2 || got[0].To != 2 || got[1].To != 3 {
		t.Errorf("composition result: %v", got)
	}
}

func TestWrappedFinishedDelegation(t *testing.T) {
	w := Wrap(sim.Silent{})
	if !w.Finished() {
		t.Error("Silent-wrapped not finished")
	}
	w = Wrap(sim.ProcessFunc(func(int, []model.Message) []model.Message { return nil }))
	if !w.Finished() {
		t.Error("non-Finisher wrapped should default to finished")
	}
}

// TestWrappedUnfinishedWhileDelayerHolds pins the flush-on-finish
// contract: a finished inner process stays unfinished while its Delayer
// buffers messages, and finishes once the buffer drains.
func TestWrappedUnfinishedWhileDelayerHolds(t *testing.T) {
	d := DelayBy(2)
	w := WrapBehaviors(sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round == 1 {
			return []model.Message{{To: 1, Payload: []byte("late")}}
		}
		return nil
	}), d)
	if got := w.Step(1, nil); len(got) != 0 {
		t.Fatalf("round 1 leaked %v", got)
	}
	if w.Finished() {
		t.Fatal("wrapped process finished while the delayer holds a message")
	}
	if got := w.Step(2, nil); len(got) != 0 {
		t.Fatalf("round 2 released early: %v", got)
	}
	got := w.Step(3, nil)
	if len(got) != 1 || string(got[0].Payload) != "late" {
		t.Fatalf("round 3 = %v, want the held message", got)
	}
	if !w.Finished() {
		t.Fatal("wrapped process still unfinished after the buffer drained")
	}
}

// TestDelayedMessagesFlushThroughEngine runs a delayed sender under the
// real engine: the inner process finishes in round 1, but the engine
// keeps stepping the wrapper (Finished is false while holding) until the
// delayed message lands — it is delivered, not silently dropped.
func TestDelayedMessagesFlushThroughEngine(t *testing.T) {
	cfg := model.Config{N: 2, T: 0}
	var delivered []model.Message
	sender := sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round == 1 {
			return []model.Message{{To: 1, Kind: model.KindPlainValue, Payload: []byte("v")}}
		}
		return nil
	})
	receiver := sim.ProcessFunc(func(round int, received []model.Message) []model.Message {
		delivered = append(delivered, received...)
		return nil
	})
	procs := []sim.Process{WrapBehaviors(sender, DelayBy(3)), receiver}
	res, err := sim.RunInstance(cfg, procs, 10)
	if err != nil {
		t.Fatalf("RunInstance: %v", err)
	}
	if len(delivered) != 1 || string(delivered[0].Payload) != "v" {
		t.Fatalf("delivered = %v, want the delayed message", delivered)
	}
	// Held in round 1, released in round 4, delivered in round 5.
	if delivered[0].Round != 4 {
		t.Errorf("delayed message stamped round %d, want 4", delivered[0].Round)
	}
	if res.Rounds >= 10 {
		t.Errorf("engine ran to the bound (%d rounds); it should stop after the flush", res.Rounds)
	}
	// Messages still held when the round bound expires are dropped — the
	// documented truncation at the protocol deadline.
	delivered = nil
	procs = []sim.Process{WrapBehaviors(sender, DelayBy(5)), receiver}
	if _, err := sim.RunInstance(cfg, procs, 3); err != nil {
		t.Fatalf("RunInstance: %v", err)
	}
	if len(delivered) != 0 {
		t.Fatalf("deadline-expired delay still delivered %v", delivered)
	}
}

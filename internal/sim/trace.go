package sim

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"repro/internal/model"
)

// Tracer observes message deliveries. Neither engine calls one
// concurrently: the lockstep engine is one goroutine, and the transport
// runners that share a run's tracer report under the run's one lock. Only
// a tracer handed to several runs at once must synchronise itself.
type Tracer interface {
	// Delivered is called once per delivered message.
	Delivered(m model.Message)
}

// RoundTracer is the extended tracer seam: a Tracer that also wants
// round boundaries implements it and the engine calls RoundStart before
// delivering a round's inboxes and RoundEnd after every process
// stepped. The observability layer's obs.EngineTracer rides this seam
// to emit per-round spans; plain Tracers keep working unchanged.
//
// RoundEnd's sent count is the number of messages the round put in
// flight (post fan-out, invalid destinations dropped) — with
// RoundStart/Delivered it gives a tracer the full per-round traffic
// picture without the engine exporting its internals.
type RoundTracer interface {
	Tracer
	// RoundStart is called before round's inboxes are delivered.
	RoundStart(round int)
	// RoundEnd is called after every process stepped in round; sent is
	// the number of messages the round enqueued for the next one.
	RoundEnd(round, sent int)
}

// WriterTracer logs one line per delivered message, for debugging runs.
// Output is buffered: lines reach w one buffer flush at a time, not one
// syscall per message, so tracing a large run does not serialize on the
// kernel. Callers that need the trace on disk before the process exits
// must call Flush or Close — the Close contract: it flushes the buffer
// and closes w when w is an io.Closer (a trace file), so
// `defer tracer.Close()` is the whole lifecycle.
type WriterTracer struct {
	mu sync.Mutex
	bw *bufio.Writer
	c  io.Closer
}

// NewWriterTracer returns a Tracer that writes buffered lines to w.
func NewWriterTracer(w io.Writer) *WriterTracer {
	t := &WriterTracer{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

var _ Tracer = (*WriterTracer)(nil)

// Delivered implements Tracer.
func (t *WriterTracer) Delivered(m model.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(t.bw, "r%-3d %v -> %v  %v (%d bytes)\n",
		m.Round, m.From, m.To, m.Kind, len(m.Payload))
}

// Flush pushes all buffered lines to the underlying writer.
func (t *WriterTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bw.Flush()
}

// Close flushes the buffer and closes the underlying writer when it is
// an io.Closer. The tracer must not be used afterwards.
func (t *WriterTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.bw.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RecordingTracer retains every delivered message, for assertions in tests.
type RecordingTracer struct {
	mu   sync.Mutex
	msgs []model.Message
}

var _ Tracer = (*RecordingTracer)(nil)

// Delivered implements Tracer.
func (t *RecordingTracer) Delivered(m model.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.msgs = append(t.msgs, m)
}

// Messages returns a copy of all recorded messages in delivery order.
func (t *RecordingTracer) Messages() []model.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]model.Message, len(t.msgs))
	copy(out, t.msgs)
	return out
}

// Views rebuilds each of n nodes' view of the run (paper §2) from the
// recorded deliveries: a message stamped with round r was received in
// round r+1, so it lands in Received(r+1) of its destination's view, in
// delivery order. A view ends at the last round its node received
// anything in.
func (t *RecordingTracer) Views(n int) []model.View {
	t.mu.Lock()
	defer t.mu.Unlock()
	views := make([]model.View, n)
	for i := range views {
		views[i].Node = model.NodeID(i)
	}
	for _, m := range t.msgs {
		v := &views[m.To]
		for len(v.Rounds) <= m.Round {
			v.Rounds = append(v.Rounds, nil)
		}
		v.Rounds[m.Round] = append(v.Rounds[m.Round], m)
	}
	return views
}

// MultiTracer fans deliveries out to several tracers, forwarding round
// boundaries to the members that implement RoundTracer. It lets a run
// carry a human trace (WriterTracer) and a structured one
// (obs.EngineTracer) at once. nil members are skipped, so callers can
// pass optional tracers unconditionally; a MultiTracer of zero live
// members still works (and traces nothing).
func MultiTracer(tracers ...Tracer) RoundTracer {
	mt := multiTracer{}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		mt.all = append(mt.all, t)
		if rt, ok := t.(RoundTracer); ok {
			mt.rounds = append(mt.rounds, rt)
		}
	}
	return mt
}

type multiTracer struct {
	all    []Tracer
	rounds []RoundTracer
}

// Delivered implements Tracer.
func (m multiTracer) Delivered(msg model.Message) {
	for _, t := range m.all {
		t.Delivered(msg)
	}
}

// RoundStart implements RoundTracer.
func (m multiTracer) RoundStart(round int) {
	for _, t := range m.rounds {
		t.RoundStart(round)
	}
}

// RoundEnd implements RoundTracer.
func (m multiTracer) RoundEnd(round, sent int) {
	for _, t := range m.rounds {
		t.RoundEnd(round, sent)
	}
}

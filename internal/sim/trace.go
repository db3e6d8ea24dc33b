package sim

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"repro/internal/model"
)

// Tracer observes message deliveries. Neither engine calls one
// concurrently: the lockstep engine traces a round's deliveries from its
// own goroutine, in node order, before any node steps, and the transport
// runners that share a run's tracer report under the run's one lock. Only
// a tracer handed to several runs at once must synchronise itself.
type Tracer interface {
	// Delivered is called once per delivered message.
	Delivered(m model.Message)
}

// WriterTracer logs one line per delivered message, for debugging runs.
// Output is buffered: lines reach w one buffer flush at a time, not one
// syscall per message, so tracing a large run does not serialize on the
// kernel. Close flushes the buffer and closes w when w is an io.Closer
// (a trace file), so Close, with its error checked, is the whole
// lifecycle.
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

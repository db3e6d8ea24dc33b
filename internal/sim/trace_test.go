package sim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/model"
)

func TestPlainTracerGetsNoRoundCallbacks(t *testing.T) {
	cfg := model.Config{N: 2, T: 0}
	a := &echoProc{id: 0, peer: 1}
	tracer := &RecordingTracer{}
	eng, err := New(cfg, []Process{a, Silent{}}, WithTracer(tracer))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.Run(2)
	if got := len(tracer.Messages()); got != 1 {
		t.Errorf("traced %d deliveries, want 1", got)
	}
}

func TestWriterTracerBuffersUntilFlush(t *testing.T) {
	var buf bytes.Buffer
	tracer := NewWriterTracer(&buf)
	tracer.Delivered(model.Message{From: 0, To: 1, Round: 1, Kind: model.KindEcho, Payload: []byte("ab")})
	if buf.Len() != 0 {
		t.Fatalf("line reached the writer before Close: %q", buf.String())
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "P0 -> P1") {
		t.Fatalf("flushed trace = %q", buf.String())
	}
}

// closeCounter counts Close calls through an io.WriteCloser.
type closeCounter struct {
	bytes.Buffer
	closed int
}

func (c *closeCounter) Close() error { c.closed++; return nil }

func TestWriterTracerCloseFlushesAndClosesCloser(t *testing.T) {
	w := &closeCounter{}
	tracer := NewWriterTracer(w)
	tracer.Delivered(model.Message{From: 1, To: 0, Round: 2, Kind: model.KindEcho})
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if w.closed != 1 {
		t.Errorf("underlying closer closed %d times, want 1", w.closed)
	}
	if !strings.Contains(w.String(), "P1 -> P0") {
		t.Errorf("Close did not flush: %q", w.String())
	}
}

// Package obs is the repository's structured observability layer: a
// low-overhead event/tracing model threaded through the campaign
// engine, the agreement daemon and the distributed scheduler. Each emits
// Events — span-style begin/end pairs for instances, requests and
// leases, points for discrete occurrences — into a per-worker Recorder that buffers them in a ring
// and flushes batches to a pluggable Sink (JSONL file for operators,
// in-memory for tests).
//
// The design constraint, inherited from the campaign determinism
// contract, is that observability must be a pure READER: enabling
// tracing may never change a report byte (pinned by
// TestReportObserverInvariance in internal/campaign), and the disabled
// path must be near-free. Both fall out of the same shape: a nil
// *Recorder is valid everywhere, every method nil-checks the receiver,
// and instrumentation sites guard attribute building behind
// Recorder.Enabled() — so the default (no recorder) costs one nil
// compare per site.
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - Recorder.Flush, MemorySink and its methods: how tests read what a recorder holds.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Event kinds. Spans are a begin/end pair sharing a scope; points are
// single occurrences; counts carry a cumulative value in Dur.
const (
	KindBegin = "begin"
	KindEnd   = "end"
	KindPoint = "point"
)

// Event is one trace record. Plain data: it marshals one-per-line into
// the JSONL trace files cmd/fdreport consumes. Inst and Node are -1
// when the event is not scoped to a campaign instance or a node.
type Event struct {
	// TS is monotonic nanoseconds since the recorder's epoch — never
	// wall-clock, so traces order correctly across clock steps and two
	// runs of the same workload produce comparable timelines.
	TS int64 `json:"ts"`
	// Kind is KindBegin, KindEnd, or KindPoint.
	Kind string `json:"kind"`
	// Scope is the dotted event name, e.g. "campaign.instance",
	// "service.request", "sched.lease".
	Scope string `json:"scope"`
	// Inst is the campaign instance index (-1 outside campaigns).
	Inst int `json:"inst"`
	// Proto is the protocol driver name ("" when not protocol-scoped).
	Proto string `json:"proto,omitempty"`
	// Node is the node ID (-1 when not node-scoped).
	Node int `json:"node"`
	// Dur is, for KindEnd events, the span's duration in nanoseconds.
	Dur int64 `json:"dur,omitempty"`
	// Attrs carries free-form "k=v k=v" detail. Built only when a
	// recorder is enabled — sites guard the formatting, not just the
	// emit.
	Attrs string `json:"attrs,omitempty"`
}

// DefaultRingSize is the per-recorder event buffer: events accumulate
// here and reach the sink one batch per fill (or per Flush), not one
// write per event — the WriterTracer syscall-per-message mistake is
// structurally impossible.
const DefaultRingSize = 512

// Recorder buffers events for one worker and flushes them to its sink
// in batches. The mutex is uncontended in the intended one-recorder-
// per-worker layout (lock-cheap, not lock-free); sharing one recorder
// across goroutines is still safe, just contended. A nil *Recorder is
// the disabled tracer: every method no-ops, Enabled reports false.
type Recorder struct {
	mu    sync.Mutex
	sink  Sink
	ring  []Event
	epoch time.Time
}

// NewRecorder builds a recorder draining into sink. A nil sink yields a
// nil (disabled) recorder, so callers can write
// NewRecorder(maybeNilSink) without branching.
func NewRecorder(sink Sink) *Recorder {
	if sink == nil {
		return nil
	}
	return &Recorder{
		sink:  sink,
		ring:  make([]Event, 0, DefaultRingSize),
		epoch: time.Now(),
	}
}

// Enabled reports whether events are being recorded. Instrumentation
// sites use it to skip attribute building entirely on the disabled
// path.
func (r *Recorder) Enabled() bool { return r != nil }

// now returns the monotonic offset since the epoch.
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Emit records one event, stamping TS. Inst and Node default to -1
// when the caller left them zero-valued AND unscoped semantics are
// wanted — callers that mean node 0 must say so, so Emit does NOT
// rewrite zeros; use the Point/Begin helpers for the common cases.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e.TS = r.now()
	r.ring = append(r.ring, e)
	if len(r.ring) == cap(r.ring) {
		r.flushLocked()
	}
	r.mu.Unlock()
}

// Point records a KindPoint event with no instance/node scope.
func (r *Recorder) Point(scope, attrs string) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindPoint, Scope: scope, Inst: -1, Node: -1, Attrs: attrs})
}

// Span is an open begin/end pair. The zero Span (from a nil recorder)
// is valid: End no-ops.
type Span struct {
	rec   *Recorder
	start time.Time
	ev    Event // the begin event, reused as the end template
}

// Begin records a KindBegin event and returns the Span whose End will
// record the matching KindEnd with the measured duration. The event's
// Kind and TS fields are stamped; everything else is the caller's.
func (r *Recorder) Begin(e Event) Span {
	if r == nil {
		return Span{}
	}
	e.Kind = KindBegin
	r.Emit(e)
	return Span{rec: r, start: time.Now(), ev: e}
}

// End closes the span, recording a KindEnd event with Dur set to the
// elapsed time and Attrs replaced by attrs when non-empty (the begin
// attrs are kept otherwise).
func (s Span) End(attrs string) {
	if s.rec == nil {
		return
	}
	e := s.ev
	e.Kind = KindEnd
	e.Dur = int64(time.Since(s.start))
	if attrs != "" {
		e.Attrs = attrs
	}
	s.rec.Emit(e)
}

// Flush drains the ring into the sink.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushLocked()
}

// flushLocked writes and resets the ring; the caller holds r.mu.
func (r *Recorder) flushLocked() error {
	if len(r.ring) == 0 {
		return nil
	}
	err := r.sink.Write(r.ring)
	r.ring = r.ring[:0]
	return err
}

// Close flushes the ring and closes the sink. The recorder must not be
// used afterwards.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ferr := r.flushLocked()
	cerr := r.sink.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Attrs formats a "k=v k=v" attribute string. It is a convenience for
// instrumentation sites; always guard calls behind Recorder.Enabled()
// so the disabled path never pays the formatting.
func Attrs(pairs ...any) string {
	if len(pairs)%2 != 0 {
		panic("obs: Attrs needs key/value pairs")
	}
	out := ""
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%v=%v", pairs[i], pairs[i+1])
	}
	return out
}

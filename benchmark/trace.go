package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded interval. Spans of one operation share a trace
// id; parent is the span that caused this one (0 for a root). A span's
// self time is its duration minus its children's.
type span struct {
	Trace  string `json:"trace"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the end-to-end runs execute.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// scope prefixes trace ids, keeping them unique across the runs that
	// share the tracer; set between runs, never during one.
	scope string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span and returns its id.
func (t *tracer) add(trace string, parent int64, name string, start time.Time, dur time.Duration) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	from := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{t.scope + trace, id, parent, name, from, from + dur.Nanoseconds()})
	return id
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := bufio.NewWriter(f)
	enc := json.NewEncoder(buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := buf.Flush(); err != nil {
		return err
	}
	return f.Close()
}

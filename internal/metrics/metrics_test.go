package metrics

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
)

func TestCountersRecord(t *testing.T) {
	c := NewCounters()
	c.Record(model.Message{From: 0, To: 1, Round: 1, Kind: model.KindChallenge, Payload: []byte("abc")})
	c.Record(model.Message{From: 0, To: 2, Round: 1, Kind: model.KindChallenge, Payload: []byte("de")})
	c.Record(model.Message{From: 1, To: 0, Round: 3, Kind: model.KindEcho})

	if got := c.Messages(); got != 3 {
		t.Errorf("Messages = %d", got)
	}
	if got := c.Bytes(); got != 5 {
		t.Errorf("Bytes = %d", got)
	}
	if got := c.MessagesOfKind(model.KindChallenge); got != 2 {
		t.Errorf("MessagesOfKind = %d", got)
	}
	if got := c.MessagesFrom(0); got != 2 {
		t.Errorf("MessagesFrom = %d", got)
	}
	if got := c.CommunicationRounds(); got != 2 {
		t.Errorf("CommunicationRounds = %d", got)
	}
	if got := c.LastRound(); got != 3 {
		t.Errorf("LastRound = %d", got)
	}
}

func TestCountersSnapshotIndependent(t *testing.T) {
	c := NewCounters()
	c.Record(model.Message{From: 0, To: 1, Round: 1, Kind: model.KindEcho})
	s := c.Snapshot()
	c.Record(model.Message{From: 0, To: 1, Round: 2, Kind: model.KindEcho})
	if s.Messages != 1 {
		t.Errorf("snapshot mutated: %d", s.Messages)
	}
	if !strings.Contains(s.String(), "msgs=1") {
		t.Errorf("Snapshot.String = %q", s.String())
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Record(model.Message{From: model.NodeID(i), To: 0, Round: j, Kind: model.KindEcho})
			}
		}(i)
	}
	wg.Wait()
	if got := c.Messages(); got != 800 {
		t.Errorf("Messages = %d, want 800", got)
	}
}

// TestCountersConcurrentReadersAndWriters interleaves Record with
// Snapshot and the scalar accessors from concurrent goroutines: the
// transport runners share one Counters across nodes while a caller may
// read progress, so the mixed read/write path must be race-clean (this test
// is the -race probe for it).
func TestCountersConcurrentReadersAndWriters(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Record(model.Message{From: model.NodeID(i), To: 0, Round: j, Kind: model.KindEcho, Payload: []byte{1, 2}})
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := c.Snapshot()
				if s.Messages < 0 || s.Bytes < 0 {
					t.Error("snapshot went negative")
					return
				}
				_ = c.Messages()
				_ = c.LastRound()
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Messages != 800 || s.Bytes != 1600 {
		t.Errorf("final snapshot msgs=%d bytes=%d, want 800/1600", s.Messages, s.Bytes)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("demo title", "name", "count")
	tbl.AddRow("alpha", 1)
	tbl.AddRow("longer-name", 20)
	tbl.AddRow("pi", 3.14159)
	tbl.AddRow("whole", 2.0)
	out := tbl.String()
	if !strings.Contains(out, "demo title") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "longer-name  20") {
		t.Errorf("alignment broken:\n%s", out)
	}
	if !strings.Contains(out, "3.14") {
		t.Error("float not rendered")
	}
	if strings.Contains(out, "2.00") {
		t.Error("whole float not trimmed")
	}
	if tbl.NumRows() != 4 {
		t.Errorf("NumRows = %d", tbl.NumRows())
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("plain", "with,comma")
	tbl.AddRow(`with"quote`, "x")
	var b strings.Builder
	tbl.RenderCSV(&b)
	out := b.String()
	if !strings.Contains(out, `"with,comma"`) {
		t.Errorf("comma cell not quoted:\n%s", out)
	}
	if !strings.Contains(out, `"with""quote"`) {
		t.Errorf("quote cell not escaped:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("header missing:\n%s", out)
	}
}

package transport

import (
	"fmt"
	"sync/atomic"
)

// ConnStats counts one link's wire traffic: frames and payload bytes in
// each direction, plus dial retries. All fields are atomics, so a conn
// being used concurrently (heartbeat goroutine + main loop) updates
// them without locks and any goroutine may Snapshot mid-flight. Attach
// to a TCP conn with WithConnStats or wrap any Conn with CountConn;
// several conns may share one ConnStats to aggregate a whole process's
// traffic.
type ConnStats struct {
	FramesSent atomic.Int64
	FramesRecv atomic.Int64
	BytesSent  atomic.Int64
	BytesRecv  atomic.Int64
	// Redials counts failed dial attempts that were retried (a dial that
	// succeeds first try contributes zero).
	Redials atomic.Int64
}

// Snapshot returns a point-in-time copy of the counters.
func (s *ConnStats) Snapshot() ConnStatsSnapshot {
	return ConnStatsSnapshot{
		FramesSent: s.FramesSent.Load(),
		FramesRecv: s.FramesRecv.Load(),
		BytesSent:  s.BytesSent.Load(),
		BytesRecv:  s.BytesRecv.Load(),
		Redials:    s.Redials.Load(),
	}
}

// ConnStatsSnapshot is a plain-data copy of a ConnStats.
type ConnStatsSnapshot struct {
	FramesSent int64 `json:"frames_sent"`
	FramesRecv int64 `json:"frames_recv"`
	BytesSent  int64 `json:"bytes_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
	Redials    int64 `json:"redials"`
}

// String renders the snapshot on one line.
func (s ConnStatsSnapshot) String() string {
	return fmt.Sprintf("sent=%d/%dB recv=%d/%dB redials=%d",
		s.FramesSent, s.BytesSent, s.FramesRecv, s.BytesRecv, s.Redials)
}

// WithConnStats attaches a counter set to the conn: every successful
// Send/Recv bumps frames and payload bytes, and DialConn adds its
// retried dial attempts. Counting is observation only — framing and
// error behavior are unchanged.
func WithConnStats(s *ConnStats) ConnOption {
	return func(c *connConfig) { c.stats = s }
}

// CountConn wraps any Conn so its traffic lands in s. It is the one
// counting path: TCP conns built with WithConnStats go through it, and
// other conns (in-memory pipes, fault-injection wrappers) are wrapped
// directly.
func CountConn(c Conn, s *ConnStats) Conn {
	if s == nil {
		return c
	}
	return &countConn{Conn: c, stats: s}
}

type countConn struct {
	Conn
	stats *ConnStats
}

func (c *countConn) Send(frame []byte) error {
	err := c.Conn.Send(frame)
	if err == nil {
		c.stats.FramesSent.Add(1)
		c.stats.BytesSent.Add(int64(len(frame)))
	}
	return err
}

func (c *countConn) Recv() ([]byte, error) {
	frame, err := c.Conn.Recv()
	if err == nil {
		c.stats.FramesRecv.Add(1)
		c.stats.BytesRecv.Add(int64(len(frame)))
	}
	return frame, err
}

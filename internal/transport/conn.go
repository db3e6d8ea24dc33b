package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Point-to-point framed connections. The mesh types (MemoryMesh, TCPMesh)
// model the all-to-all topology the agreement protocols need; the
// campaign scheduler (internal/sched) and the agreement service
// (internal/service) instead need plain client/server links — a
// coordinator accepting many workers — so this file provides the
// minimal framed-connection vocabulary: an in-memory Pipe for tests and
// a TCP implementation with configurable I/O deadlines and
// capped-backoff connect retry over length-prefixed frames
// (writeFrame/readFrame). It is the only framed-socket implementation:
// TCPMesh's links are these Conns too.

// Conn is one bidirectional framed link. Send and Recv must be safe for
// concurrent use (a worker heartbeats while its main loop sends results).
type Conn interface {
	// Send transmits one frame.
	Send(frame []byte) error
	// Recv blocks for the next frame; it returns an error when the link
	// closes or (when configured) an I/O deadline expires.
	Recv() ([]byte, error)
	// Close tears the link down; pending and future Recv calls fail.
	Close() error
}

// Acceptor produces inbound Conns; *TCPConnListener implements it, and
// tests substitute in-memory acceptors built on Pipe.
type Acceptor interface {
	Accept() (Conn, error)
}

// connBuffer bounds each pipe direction's buffered frames.
const connBuffer = 256

// Pipe returns two connected in-memory Conns. Closing either end tears
// down both directions abruptly — buffered frames are dropped, exactly
// like a TCP reset — which is what the fault-injection harness wants
// from a simulated crash.
func Pipe() (Conn, Conn) {
	ab := make(chan []byte, connBuffer)
	ba := make(chan []byte, connBuffer)
	done := make(chan struct{})
	once := new(sync.Once)
	a := &pipeConn{out: ab, in: ba, done: done, once: once}
	b := &pipeConn{out: ba, in: ab, done: done, once: once}
	return a, b
}

type pipeConn struct {
	out, in chan []byte
	done    chan struct{}
	once    *sync.Once
}

func (p *pipeConn) Send(frame []byte) error {
	// Check done first: a closed pipe must refuse traffic even while the
	// buffers still have room (select otherwise picks arms at random).
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	cp := append([]byte(nil), frame...)
	select {
	case p.out <- cp:
		return nil
	case <-p.done:
		return ErrClosed
	}
}

func (p *pipeConn) Recv() ([]byte, error) {
	select {
	case <-p.done:
		return nil, ErrClosed
	default:
	}
	select {
	case frame := <-p.in:
		return frame, nil
	case <-p.done:
		return nil, ErrClosed
	}
}

func (p *pipeConn) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

// PipeAcceptor is an in-memory Acceptor: Dial produces the client end of
// a fresh Pipe and queues the server end for Accept. It lets scheduler
// tests exercise the full accept path without sockets.
type PipeAcceptor struct {
	pending chan Conn
	done    chan struct{}
	once    sync.Once
}

// NewPipeAcceptor returns an empty in-memory acceptor.
func NewPipeAcceptor() *PipeAcceptor {
	return &PipeAcceptor{pending: make(chan Conn, 16), done: make(chan struct{})}
}

// Dial connects a new client to the acceptor and returns the client end.
func (a *PipeAcceptor) Dial() (Conn, error) {
	client, server := Pipe()
	select {
	case a.pending <- server:
		return client, nil
	case <-a.done:
		client.Close()
		return nil, ErrClosed
	}
}

// Accept implements Acceptor.
func (a *PipeAcceptor) Accept() (Conn, error) {
	select {
	case conn := <-a.pending:
		return conn, nil
	case <-a.done:
		return nil, ErrClosed
	}
}

// Close stops the acceptor; blocked Dial and Accept calls fail.
func (a *PipeAcceptor) Close() error {
	a.once.Do(func() { close(a.done) })
	return nil
}

// connConfig carries the tunable Conn behaviors; the zero value is the
// historical behavior (no deadlines, no counting).
type connConfig struct {
	readTimeout  time.Duration
	writeTimeout time.Duration
	stats        *ConnStats
}

// ConnOption configures DialConn, ListenConn, NewTCPConn and NewTCPMesh.
type ConnOption func(*connConfig)

func newConnConfig(opts []ConnOption) connConfig {
	var cfg connConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithConnReadTimeout bounds each Recv: a peer that goes silent for d
// fails the read instead of blocking forever. Leave unset for links
// whose idle periods are legitimate (a worker waiting for its next
// lease) and rely on application-level deadlines instead.
func WithConnReadTimeout(d time.Duration) ConnOption {
	return func(c *connConfig) { c.readTimeout = d }
}

// WithConnWriteTimeout bounds each Send: a peer that stops draining its
// socket fails the write after d instead of blocking the sender forever.
func WithConnWriteTimeout(d time.Duration) ConnOption {
	return func(c *connConfig) { c.writeTimeout = d }
}

// DialConn connects to a listening peer, retrying refused connections
// with capped exponential backoff for dialRetryWindow — a worker started
// moments before its coordinator must converge, not die.
func DialConn(addr string, opts ...ConnOption) (Conn, error) {
	cfg := newConnConfig(opts)
	raw, err := dialBackoff(addr, cfg.stats)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &tcpConn{raw: raw, cfg: cfg}, nil
}

// NewTCPConn wraps an established net.Conn as a framed Conn.
func NewTCPConn(raw net.Conn, opts ...ConnOption) Conn {
	return &tcpConn{raw: raw, cfg: newConnConfig(opts)}
}

type tcpConn struct {
	raw    net.Conn
	cfg    connConfig
	sendMu sync.Mutex
}

func (c *tcpConn) Send(frame []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.cfg.writeTimeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.cfg.writeTimeout)); err != nil {
			return err
		}
	}
	if err := writeFrame(c.raw, frame); err != nil {
		return err
	}
	if s := c.cfg.stats; s != nil {
		s.FramesSent.Add(1)
		s.BytesSent.Add(int64(len(frame)))
	}
	return nil
}

func (c *tcpConn) Recv() ([]byte, error) {
	if c.cfg.readTimeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.cfg.readTimeout)); err != nil {
			return nil, err
		}
	}
	frame, err := readFrame(c.raw)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	if s := c.cfg.stats; s != nil {
		s.FramesRecv.Add(1)
		s.BytesRecv.Add(int64(len(frame)))
	}
	return frame, nil
}

func (c *tcpConn) Close() error { return c.raw.Close() }

// TCPConnListener accepts framed Conns on a TCP address.
type TCPConnListener struct {
	ln   net.Listener
	opts []ConnOption
}

// ListenConn starts a TCP listener whose accepted Conns carry the given
// options.
func ListenConn(addr string, opts ...ConnOption) (*TCPConnListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &TCPConnListener{ln: ln, opts: opts}, nil
}

// Accept implements Acceptor.
func (l *TCPConnListener) Accept() (Conn, error) {
	raw, err := l.ln.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return NewTCPConn(raw, l.opts...), nil
}

// Addr returns the bound address (useful with ":0").
func (l *TCPConnListener) Addr() string { return l.ln.Addr().String() }

// Close stops accepting; established Conns are unaffected.
func (l *TCPConnListener) Close() error { return l.ln.Close() }

// dialRetryWindow bounds how long a boot-time dial keeps retrying.
const dialRetryWindow = 10 * time.Second

// dialBackoff dials addr with capped exponential backoff: 10 ms doubling
// to 640 ms between attempts, for up to dialRetryWindow. The failed
// attempts (none when the first dial connects) are added to
// stats.Redials when stats is non-nil.
func dialBackoff(addr string, stats *ConnStats) (net.Conn, error) {
	const (
		backoffStart = 10 * time.Millisecond
		backoffCap   = 640 * time.Millisecond
	)
	deadline := time.Now().Add(dialRetryWindow)
	delay := backoffStart
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if stats != nil {
			stats.Redials.Add(1)
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(delay)
		if delay < backoffCap {
			delay *= 2
		}
	}
}

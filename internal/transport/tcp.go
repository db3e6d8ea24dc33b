package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/sig"
)

// TCPMesh is a Transport over real TCP sockets. Each node listens on its
// own address; the mesh is completed by having every node dial all peers
// with a LOWER node ID (so each unordered pair gets exactly one
// connection), exchanging a hello frame that names the dialer. After
// the hello each socket is a Conn (NewTCPConn), the same framed link
// the scheduler and the agreement service speak over, so deadlines,
// per-link send serialization and traffic counting are Conn's.
//
// Framing: 4-byte big-endian length prefix per frame, capped at
// maxFrameSize to stop a hostile peer from forcing huge allocations.
type TCPMesh struct {
	self model.NodeID
	n    int
	// conns is complete, and only read, once NewTCPMesh returns.
	conns map[model.NodeID]Conn
	// failFast is set when the links carry a read timeout. Without one a
	// single dead peer blocks its reader (and the lockstep barrier behind
	// it) forever; with one the silence is detected, the mesh shuts down,
	// and Recv returns an error naming the peer — the runner fails fast
	// instead of hanging. Pick a timeout comfortably above the slowest
	// expected round.
	failFast bool

	inbox   chan envelope
	closed  chan struct{}
	once    sync.Once
	readers sync.WaitGroup

	failMu  sync.Mutex
	failErr error
}

// maxFrameSize bounds one frame (16 MiB), matching the codec's field cap.
const maxFrameSize = 16 << 20

// tcpInboxBuffer bounds buffered inbound frames.
const tcpInboxBuffer = 4096

// NewTCPMesh constructs the mesh for node self. addrs maps every node ID
// (including self) to its listen address; opts configure every link, as
// they do for DialConn. The call blocks until the full mesh is
// connected, so all nodes must be started concurrently.
func NewTCPMesh(self model.NodeID, addrs map[model.NodeID]string, opts ...ConnOption) (*TCPMesh, error) {
	if !self.Valid(len(addrs)) {
		return nil, fmt.Errorf("transport: self %v out of range for %d nodes", self, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[self], err)
	}
	return newTCPMesh(self, ln, addrs, opts...)
}

// newTCPMesh is NewTCPMesh over node self's already bound listener,
// which it closes.
func newTCPMesh(self model.NodeID, ln net.Listener, addrs map[model.NodeID]string, opts ...ConnOption) (*TCPMesh, error) {
	n := len(addrs)
	cfg := newConnConfig(opts)
	m := &TCPMesh{
		self:     self,
		n:        n,
		conns:    make(map[model.NodeID]Conn, n-1),
		failFast: cfg.readTimeout > 0,
		inbox:    make(chan envelope, tcpInboxBuffer),
		closed:   make(chan struct{}),
	}
	defer ln.Close() // the mesh is fixed-size; once complete, stop accepting

	// Accept connections from higher-ID peers (they dial us)...
	expectAccept := n - 1 - int(self)
	helloTimeout := cfg.readTimeout
	if helloTimeout <= 0 {
		helloTimeout = helloBootTimeout
	}
	var mu sync.Mutex // guards m.conns while the acceptor and the dialer both fill it
	acceptErr := make(chan error, 1)
	go func() {
		for i := 0; i < expectAccept; i++ {
			raw, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			peer, err := readHello(raw, helloTimeout)
			if err == nil && (!peer.Valid(n) || peer <= self) {
				err = fmt.Errorf("from %v, who does not dial node %v of %d", peer, self, n)
			}
			if err != nil {
				raw.Close()
				acceptErr <- fmt.Errorf("transport: bad hello: %w", err)
				return
			}
			mu.Lock()
			m.conns[peer] = NewTCPConn(raw, opts...)
			mu.Unlock()
		}
		acceptErr <- nil
	}()

	// ...and dial all lower-ID peers. Dials retry with capped backoff:
	// when a whole cluster boots concurrently, a peer's listener may come
	// up a moment after our first attempt.
	err := func() error {
		for p := model.NodeID(0); p < self; p++ {
			raw, err := dialBackoff(addrs[p], cfg.stats)
			if err != nil {
				return fmt.Errorf("transport: dial %v at %s: %w", p, addrs[p], err)
			}
			if err := writeHello(raw, self); err != nil {
				raw.Close()
				return fmt.Errorf("transport: hello to %v: %w", p, err)
			}
			mu.Lock()
			m.conns[p] = NewTCPConn(raw, opts...)
			mu.Unlock()
		}
		return nil
	}()
	if err != nil {
		ln.Close() // boot is abandoned: stop the acceptor waiting for more
	}
	// The acceptor has reported before any link is closed, so it cannot
	// add one afterwards.
	if aerr := <-acceptErr; err == nil {
		err = aerr
	}
	if err != nil {
		for _, conn := range m.conns {
			conn.Close()
		}
		return nil, err
	}

	// Start one reader per connection.
	for peer, conn := range m.conns {
		m.readers.Add(1)
		go m.readLoop(peer, conn)
	}
	return m, nil
}

var _ Transport = (*TCPMesh)(nil)

// Self implements Transport.
func (m *TCPMesh) Self() model.NodeID { return m.self }

// Peers implements Transport.
func (m *TCPMesh) Peers() []model.NodeID {
	out := make([]model.NodeID, 0, m.n-1)
	for i := 0; i < m.n; i++ {
		if model.NodeID(i) != m.self {
			out = append(out, model.NodeID(i))
		}
	}
	return out
}

// Send implements Transport.
func (m *TCPMesh) Send(to model.NodeID, frame []byte) error {
	conn, ok := m.conns[to]
	if !ok {
		return fmt.Errorf("transport: no connection to %v", to)
	}
	return conn.Send(frame)
}

// Recv implements Transport.
func (m *TCPMesh) Recv() (model.NodeID, []byte, error) {
	select {
	case env := <-m.inbox:
		return env.from, env.frame, nil
	case <-m.closed:
		if err := m.failure(); err != nil {
			return model.NoNode, nil, err
		}
		return model.NoNode, nil, ErrClosed
	}
}

// fail records the first peer failure and tears the mesh down so every
// blocked Recv unblocks with the failure instead of hanging on a barrier
// a dead peer will never complete. A deliberate Close is not a failure.
func (m *TCPMesh) fail(peer model.NodeID, err error) {
	select {
	case <-m.closed:
		return // already shutting down
	default:
	}
	m.failMu.Lock()
	if m.failErr == nil {
		m.failErr = fmt.Errorf("transport: peer %v failed: %w", peer, err)
	}
	m.failMu.Unlock()
	m.shutdown()
}

// failure returns the recorded peer failure, if any.
func (m *TCPMesh) failure() error {
	m.failMu.Lock()
	defer m.failMu.Unlock()
	return m.failErr
}

// shutdown closes the mesh without waiting for the readers (Close waits;
// fail is called FROM a reader and must not).
func (m *TCPMesh) shutdown() {
	m.once.Do(func() {
		close(m.closed)
		for _, c := range m.conns {
			c.Close()
		}
	})
}

// Close implements Transport.
func (m *TCPMesh) Close() error {
	m.shutdown()
	m.readers.Wait()
	return nil
}

// readLoop pumps frames from one connection into the shared inbox. With
// a read timeout configured, a peer that stays silent past it is
// reported through fail, which shuts the whole mesh down — the lockstep
// barrier cannot make progress without every peer anyway.
func (m *TCPMesh) readLoop(peer model.NodeID, conn Conn) {
	defer m.readers.Done()
	for {
		frame, err := conn.Recv()
		if err != nil {
			if m.failFast {
				m.fail(peer, err)
			}
			return // without a deadline: closed or corrupted; barrier times out
		}
		select {
		case m.inbox <- envelope{from: peer, frame: frame}:
		case <-m.closed:
			return
		}
	}
}

// writeFrame writes a length-prefixed frame.
func writeFrame(w io.Writer, frame []byte) error {
	if len(frame) > maxFrameSize {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(frame))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// readFrame reads a length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// writeHello identifies the dialer to the acceptor.
func writeHello(conn net.Conn, self model.NodeID) error {
	return writeFrame(conn, sig.NewEncoder().String("hello/v1").Int(int(self)).Encoding())
}

// helloBootTimeout bounds a connected peer's hello when the links carry
// no read timeout of their own: a mesh boots all at once, and a dialer
// that has not identified itself within seconds never will.
const helloBootTimeout = 5 * time.Second

// readHello parses the dialer's identity, which must arrive within
// timeout; the deadline covers the hello only and is cleared after it.
func readHello(conn net.Conn, timeout time.Duration) (model.NodeID, error) {
	// A deadline only fails to set on a closed socket, and then so does
	// the read.
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	defer conn.SetReadDeadline(time.Time{})
	frame, err := readFrame(conn)
	if err != nil {
		return model.NoNode, err
	}
	d := sig.NewDecoder(frame)
	if tag := d.String(); tag != "hello/v1" {
		return model.NoNode, fmt.Errorf("transport: bad hello tag %q", tag)
	}
	id := model.NodeID(d.Int())
	if err := d.Finish(); err != nil {
		return model.NoNode, err
	}
	return id, nil
}

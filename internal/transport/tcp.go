package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"repro/internal/model"
)

// NewTCPMesh and BootLoopback build a Mesh over TCP sockets. Each node
// listens on its own address; the mesh is completed by having every node
// dial all peers with a LOWER node ID (so each unordered pair gets
// exactly one connection) and send a hello frame (EncodeHello) naming
// itself in decimal. After the hello each socket is a Conn (NewTCPConn),
// the same framed link the scheduler and the agreement service speak
// over, so deadlines, per-link send serialization and traffic counting
// are Conn's.
//
// Framing: 4-byte big-endian length prefix per frame, capped at
// maxFrameSize to stop a hostile peer from forcing huge allocations.

// maxFrameSize bounds one frame (16 MiB), matching the codec's field cap.
const maxFrameSize = 16 << 20

// The mesh hello's kind and protocol tag.
const (
	meshHelloKind = 1
	meshHelloTag  = "mesh/v1"
)

// helloBootTimeout bounds a connected peer's hello when the links carry
// no read timeout of their own: a mesh boots all at once, and a dialer
// that has not identified itself within seconds never will.
const helloBootTimeout = 5 * time.Second

// NewTCPMesh constructs the mesh for node self. addrs maps every node ID
// (including self) to its listen address; opts configure every link, as
// they do for DialConn. The call blocks until the full mesh is
// connected, so all nodes must be started concurrently.
func NewTCPMesh(self model.NodeID, addrs map[model.NodeID]string, opts ...ConnOption) (*Mesh, error) {
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
func newTCPMesh(self model.NodeID, ln net.Listener, addrs map[model.NodeID]string, opts ...ConnOption) (*Mesh, error) {
	n := len(addrs)
	cfg := newConnConfig(opts)
	// The acceptor fills the higher peers' slots and the dialer the lower
	// ones; both have finished before anything else reads conns.
	conns := make([]Conn, n)
	defer ln.Close() // the mesh is fixed-size; once complete, stop accepting

	// Accept connections from higher-ID peers (they dial us)...
	expectAccept := n - 1 - int(self)
	helloTimeout := cfg.readTimeout
	if helloTimeout <= 0 {
		helloTimeout = helloBootTimeout
	}
	acceptErr := make(chan error, 1)
	go func() {
		for i := 0; i < expectAccept; i++ {
			raw, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			// The deadline covers the hello only. It only fails to set on
			// a closed socket, and then so does the read.
			_ = raw.SetReadDeadline(time.Now().Add(helloTimeout))
			frame, err := readFrame(raw)
			name := ""
			if err == nil {
				name, err = DecodeHello(frame, meshHelloKind, meshHelloTag)
			}
			id, aerr := strconv.Atoi(name)
			peer := model.NodeID(id)
			if err == nil && (aerr != nil || !peer.Valid(n) || peer <= self || conns[peer] != nil) {
				err = fmt.Errorf("from %q, who does not dial node %v of %d or already has", name, self, n)
			}
			if err != nil {
				raw.Close()
				acceptErr <- fmt.Errorf("transport: bad hello: %w", err)
				return
			}
			_ = raw.SetReadDeadline(time.Time{})
			conns[peer] = NewTCPConn(raw, opts...)
		}
		acceptErr <- nil
	}()

	// ...and dial all lower-ID peers. Dials retry with capped backoff:
	// when a whole cluster boots concurrently, a peer's listener may come
	// up a moment after our first attempt.
	err := func() error {
		hello := EncodeHello(meshHelloKind, meshHelloTag, strconv.Itoa(int(self)))
		for p := model.NodeID(0); p < self; p++ {
			raw, err := dialBackoff(addrs[p], cfg.stats)
			if err != nil {
				return fmt.Errorf("transport: dial %v at %s: %w", p, addrs[p], err)
			}
			if err := writeFrame(raw, hello); err != nil {
				raw.Close()
				return fmt.Errorf("transport: hello to %v: %w", p, err)
			}
			conns[p] = NewTCPConn(raw, opts...)
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
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
		return nil, err
	}
	return newMesh(self, conns, cfg.readTimeout > 0), nil
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

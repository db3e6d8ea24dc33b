package transport

import (
	"fmt"
	"sync"

	"repro/internal/model"
)

// Mesh is one node's end of a fully connected mesh: a framed Conn to
// every peer and one reader per link feeding one inbox. A frame's sender
// is the link it arrived on (the model's N2). NewMemoryMesh builds the
// links from Pipes, NewTCPMesh and BootLoopback from sockets; from the
// links up it is the same code.
type Mesh struct {
	self model.NodeID
	// conns[p] is the link to peer p and conns[self] is nil; fixed once
	// the mesh is built.
	conns []Conn
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

type envelope struct {
	from  model.NodeID
	frame []byte
}

// meshInboxBuffer bounds a node's buffered inbound frames.
const meshInboxBuffer = 4096

// newMesh starts node self's mesh over conns, one reader per link.
func newMesh(self model.NodeID, conns []Conn, failFast bool) *Mesh {
	m := &Mesh{
		self:     self,
		conns:    conns,
		failFast: failFast,
		inbox:    make(chan envelope, meshInboxBuffer),
		closed:   make(chan struct{}),
	}
	for peer, conn := range conns {
		if conn != nil {
			m.readers.Add(1)
			go m.readLoop(model.NodeID(peer), conn)
		}
	}
	return m
}

// NewMemoryMesh builds n meshes in this process, node i's at index i,
// every pair of nodes joined by one Pipe. Closing a node's mesh closes
// its pipes, so its peers' Sends to it fail with ErrClosed.
func NewMemoryMesh(n int) []*Mesh {
	links := make([][]Conn, n)
	for i := range links {
		links[i] = make([]Conn, n)
		for j := range i {
			links[i][j], links[j][i] = Pipe()
		}
	}
	meshes := make([]*Mesh, n)
	for i := range meshes {
		meshes[i] = newMesh(model.NodeID(i), links[i], false)
	}
	return meshes
}

// Self returns the local node ID.
func (m *Mesh) Self() model.NodeID { return m.self }

// Peers returns the IDs of every other node.
func (m *Mesh) Peers() []model.NodeID {
	out := make([]model.NodeID, 0, len(m.conns)-1)
	for peer, conn := range m.conns {
		if conn != nil {
			out = append(out, model.NodeID(peer))
		}
	}
	return out
}

// Send transmits one frame to a peer; self and unknown nodes are refused.
func (m *Mesh) Send(to model.NodeID, frame []byte) error {
	if !to.Valid(len(m.conns)) || m.conns[to] == nil {
		return fmt.Errorf("transport: no link to %v", to)
	}
	return m.conns[to].Send(frame)
}

// Recv blocks for the next frame and its sender. After Close it returns
// ErrClosed, after a peer failure (failFast) the failure.
func (m *Mesh) Recv() (model.NodeID, []byte, error) {
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
func (m *Mesh) fail(peer model.NodeID, err error) {
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
func (m *Mesh) failure() error {
	m.failMu.Lock()
	defer m.failMu.Unlock()
	return m.failErr
}

// shutdown closes the mesh without waiting for the readers (Close waits;
// fail is called FROM a reader and must not).
func (m *Mesh) shutdown() {
	m.once.Do(func() {
		close(m.closed)
		for _, c := range m.conns {
			if c != nil {
				c.Close()
			}
		}
	})
}

// Close closes every link and waits for the readers to exit.
func (m *Mesh) Close() error {
	m.shutdown()
	m.readers.Wait()
	return nil
}

// readLoop pumps frames from one link into the shared inbox. With a read
// timeout configured, a peer that stays silent past it is reported
// through fail, which shuts the whole mesh down — the lockstep barrier
// cannot make progress without every peer anyway.
func (m *Mesh) readLoop(peer model.NodeID, conn Conn) {
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

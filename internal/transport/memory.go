package transport

import (
	"fmt"
	"sync"

	"repro/internal/model"
)

// MemoryMesh is an in-process Transport: every node gets a buffered
// channel; Send posts to the destination's channel. It is the reference
// Transport implementation used by tests, with the same semantics the TCP
// mesh provides over sockets.
type MemoryMesh struct {
	n      int
	boxes  []chan envelope
	closed []chan struct{}
	once   []sync.Once
}

type envelope struct {
	from  model.NodeID
	frame []byte
}

// memoryBuffer bounds each node's inbox; generous enough for every
// protocol in the repository at the demo scales.
const memoryBuffer = 4096

// NewMemoryMesh creates a fully connected in-memory mesh of n nodes.
func NewMemoryMesh(n int) *MemoryMesh {
	m := &MemoryMesh{
		n:      n,
		boxes:  make([]chan envelope, n),
		closed: make([]chan struct{}, n),
		once:   make([]sync.Once, n),
	}
	for i := range m.boxes {
		m.boxes[i] = make(chan envelope, memoryBuffer)
		m.closed[i] = make(chan struct{})
	}
	return m
}

// Endpoints returns every node's Transport view, indexed by node ID.
func (m *MemoryMesh) Endpoints() []Transport {
	out := make([]Transport, m.n)
	for i := range out {
		out[i] = m.Endpoint(model.NodeID(i))
	}
	return out
}

// Endpoint returns node id's Transport view of the mesh.
func (m *MemoryMesh) Endpoint(id model.NodeID) Transport {
	return &memoryEndpoint{mesh: m, self: id}
}

type memoryEndpoint struct {
	mesh *MemoryMesh
	self model.NodeID
}

var _ Transport = (*memoryEndpoint)(nil)

func (e *memoryEndpoint) Self() model.NodeID { return e.self }

func (e *memoryEndpoint) Peers() []model.NodeID {
	out := make([]model.NodeID, 0, e.mesh.n-1)
	for i := 0; i < e.mesh.n; i++ {
		if model.NodeID(i) != e.self {
			out = append(out, model.NodeID(i))
		}
	}
	return out
}

func (e *memoryEndpoint) Send(to model.NodeID, frame []byte) error {
	if !to.Valid(e.mesh.n) || to == e.self {
		return fmt.Errorf("transport: invalid destination %v", to)
	}
	cp := append([]byte(nil), frame...)
	select {
	case e.mesh.boxes[to] <- envelope{from: e.self, frame: cp}:
		return nil
	case <-e.mesh.closed[to]:
		return ErrClosed
	}
}

func (e *memoryEndpoint) Recv() (model.NodeID, []byte, error) {
	select {
	case env := <-e.mesh.boxes[e.self]:
		return env.from, env.frame, nil
	case <-e.mesh.closed[e.self]:
		return model.NoNode, nil, ErrClosed
	}
}

func (e *memoryEndpoint) Close() error {
	e.mesh.once[e.self].Do(func() { close(e.mesh.closed[e.self]) })
	return nil
}

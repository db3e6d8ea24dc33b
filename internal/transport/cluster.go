package transport

import (
	"context"
	"fmt"
	"net"
	"sync"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

// MeshEngine is the run engine over a mesh: one goroutine per node
// (meshes[i] is node i's) drives that node's process through the DONE
// barrier of runner.go. The returned function is a core.Engine —
// core.WithEngine(transport.MeshEngine(meshes)) puts a whole cluster
// lifecycle on the mesh — and is sim.Engine.Run's equal: same counters,
// same deliveries, same fates, same round count.
//
// The n runners share the one counters, tracer and network of the run
// under one lock. A link's fate depends only on what its sender pushed
// through it (netcond.Model), never on how senders interleave, so the
// one model answers as it answers the lockstep engine; and a tracer is
// never called concurrently, in either engine, and sees the deliveries
// in the lockstep engine's order (runShared.trace).
func MeshEngine(meshes []*Mesh) func(procs []sim.Process, maxRounds int, counters *metrics.Counters, tracer sim.Tracer, net sim.Network) (int, error) {
	return func(procs []sim.Process, maxRounds int, counters *metrics.Counters, tracer sim.Tracer, net sim.Network) (int, error) {
		if len(meshes) != len(procs) {
			return 0, fmt.Errorf("transport: %d meshes for %d processes", len(meshes), len(procs))
		}
		if maxRounds < 1 {
			maxRounds = 1
		}
		shared := &runShared{counters: counters, tracer: tracer, net: net, n: len(procs)}
		if tracer != nil {
			shared.traced = make(map[int]*tracedRound)
		}
		rounds := make([]int, len(procs))
		errs := make([]error, len(procs))
		var wg sync.WaitGroup
		for i := range procs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := runner{mesh: meshes[i], proc: procs[i], runShared: shared}
				rounds[i], errs[i] = r.run(maxRounds)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return 0, fmt.Errorf("transport: node %d: %w", i, err)
			}
		}
		// Every runner saw the same quiet bits, so they all stopped at
		// the same round.
		return rounds[0], nil
	}
}

// Loopback is a fully connected TCP mesh on 127.0.0.1 with every node's
// end in this process: what MeshEngine needs to run a cluster over
// real sockets from one binary.
type Loopback struct {
	// Meshes holds node i's mesh at index i.
	Meshes []*Mesh
	// Addrs is each node's listen address.
	Addrs map[model.NodeID]string
	stop  func() bool
}

// BootLoopback binds n loopback listeners and boots the n meshes over
// them concurrently (a mesh's boot blocks until its links are up); opts
// configure every link. Every port is bound before anyone dials, so no
// boot waits on a listener that lost its port. If a node fails to boot
// the others are closed. The meshes also close when ctx is done, so a
// signal fails the run in progress instead of leaving it on a barrier
// nobody will complete.
func BootLoopback(ctx context.Context, n int, opts ...ConnOption) (*Loopback, error) {
	l := &Loopback{Meshes: make([]*Mesh, n), Addrs: make(map[model.NodeID]string, n)}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, bound := range listeners[:i] {
				bound.Close()
			}
			return nil, fmt.Errorf("transport: bind a loopback port: %w", err)
		}
		listeners[i] = ln
		l.Addrs[model.NodeID(i)] = ln.Addr().String()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range listeners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := newTCPMesh(model.NodeID(i), listeners[i], l.Addrs, opts...)
			if err != nil {
				errs[i] = err
				return
			}
			l.Meshes[i] = m
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("transport: boot node %d: %w", i, err)
		}
	}
	l.stop = context.AfterFunc(ctx, l.Close)
	return l, nil
}

// Close closes every mesh. It is safe to call more than once.
func (l *Loopback) Close() {
	if l.stop != nil {
		l.stop()
	}
	for _, m := range l.Meshes {
		if m != nil {
			m.Close()
		}
	}
}

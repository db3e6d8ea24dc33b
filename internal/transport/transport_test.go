package transport_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/transport"
)

// buildEndpoints returns one Transport per node for the given mesh kind;
// opts configure the tcp mesh's links.
func buildEndpoints(t *testing.T, kind string, n int, opts ...transport.ConnOption) []transport.Transport {
	t.Helper()
	switch kind {
	case "memory":
		mesh := transport.NewMemoryMesh(n)
		out := make([]transport.Transport, n)
		for i := 0; i < n; i++ {
			out[i] = mesh.Endpoint(model.NodeID(i))
		}
		return out
	case "tcp":
		addrs := make(map[model.NodeID]string, n)
		for i := 0; i < n; i++ {
			addrs[model.NodeID(i)] = freeAddr(t)
		}
		out := make([]transport.Transport, n)
		done := make(chan struct{})
		errCh := make(chan error, n)
		for i := 0; i < n; i++ {
			go func(i int) {
				m, err := transport.NewTCPMesh(model.NodeID(i), addrs, opts...)
				if err != nil {
					errCh <- fmt.Errorf("node %d: %w", i, err)
					return
				}
				out[i] = m
				errCh <- nil
			}(i)
		}
		go func() { defer close(done) }()
		for i := 0; i < n; i++ {
			if err := <-errCh; err != nil {
				t.Fatalf("mesh: %v", err)
			}
		}
		return out
	default:
		t.Fatalf("unknown mesh kind %q", kind)
		return nil
	}
}

// freeAddr reserves a localhost port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestFullLifecycleOverTransports runs key distribution AND a chain FD
// run over each transport, asserting the exact message counts and
// decisions the simulator produces — the protocols are transport-agnostic.
func TestFullLifecycleOverTransports(t *testing.T) {
	for _, kind := range []string{"memory", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			n, tol := 5, 1
			cfg := model.Config{N: n, T: tol}
			scheme, err := sig.ByName(sig.SchemeEd25519)
			if err != nil {
				t.Fatalf("ByName: %v", err)
			}

			// Phase 1: key distribution.
			endpoints := buildEndpoints(t, kind, n)
			defer func() {
				for _, ep := range endpoints {
					ep.Close()
				}
			}()
			kdNodes := make([]*keydist.Node, n)
			kdProcs := make([]sim.Process, n)
			for i := 0; i < n; i++ {
				node, err := keydist.NewNode(cfg, model.NodeID(i), scheme, sim.SeededReader(sim.NodeSeed(77, i)))
				if err != nil {
					t.Fatalf("NewNode: %v", err)
				}
				kdNodes[i] = node
				kdProcs[i] = node
			}
			counters := metrics.NewCounters()
			if _, err := transport.RunCluster(endpoints, kdProcs, keydist.RoundsTotal, counters); err != nil {
				t.Fatalf("RunCluster(keydist): %v", err)
			}
			if got, want := counters.Messages(), keydist.ExpectedMessages(n); got != want {
				t.Errorf("keydist messages = %d, want %d", got, want)
			}
			for _, node := range kdNodes {
				if !node.Accepted() {
					t.Fatalf("%v accepted %d/%d predicates over %s", node.ID(), node.Directory().Len(), n, kind)
				}
			}

			// Phase 2: chain failure discovery over the SAME mesh.
			value := []byte("over the wire")
			fdNodes := make([]*fd.ChainNode, n)
			fdProcs := make([]sim.Process, n)
			for i := 0; i < n; i++ {
				var opts []fd.ChainOption
				if model.NodeID(i) == fd.Sender {
					opts = append(opts, fd.WithValue(value))
				}
				node, err := fd.NewChainNode(cfg, model.NodeID(i), kdNodes[i].Signer(), kdNodes[i].Directory(), opts...)
				if err != nil {
					t.Fatalf("NewChainNode: %v", err)
				}
				fdNodes[i] = node
				fdProcs[i] = node
			}
			fdCounters := metrics.NewCounters()
			if _, err := transport.RunCluster(endpoints, fdProcs, fd.ChainEngineRounds(tol), fdCounters); err != nil {
				t.Fatalf("RunCluster(fd): %v", err)
			}
			if got, want := fdCounters.Messages(), n-1; got != want {
				t.Errorf("fd messages = %d, want %d", got, want)
			}
			for _, node := range fdNodes {
				o := node.Outcome()
				if !o.Decided || !bytes.Equal(o.Value, value) {
					t.Errorf("%v outcome over %s: %v", o.Node, kind, o)
				}
			}
		})
	}
}

func TestMemoryMeshBasics(t *testing.T) {
	mesh := transport.NewMemoryMesh(3)
	a := mesh.Endpoint(0)
	b := mesh.Endpoint(1)
	if a.Self() != 0 {
		t.Errorf("Self = %v", a.Self())
	}
	if got := a.Peers(); len(got) != 2 {
		t.Errorf("Peers = %v", got)
	}
	if err := a.Send(1, []byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	from, frame, err := b.Recv()
	if err != nil || from != 0 || string(frame) != "ping" {
		t.Errorf("Recv = %v %q %v", from, frame, err)
	}
	if err := a.Send(0, []byte("self")); err == nil {
		t.Error("send-to-self accepted")
	}
	if err := a.Send(9, []byte("oob")); err == nil {
		t.Error("out-of-range destination accepted")
	}
	b.Close()
	if _, _, err := b.Recv(); err == nil {
		t.Error("Recv after Close succeeded")
	}
}

func TestTCPMeshCloseUnblocksRecv(t *testing.T) {
	endpoints := buildEndpoints(t, "tcp", 2)
	done := make(chan error, 1)
	go func() {
		_, _, err := endpoints[0].Recv()
		done <- err
	}()
	endpoints[0].Close()
	if err := <-done; err == nil {
		t.Error("Recv not unblocked by Close")
	}
	endpoints[1].Close()
}

// With a read timeout on its links, a mesh whose peer stays silent must
// fail — Recv returning an error that names the peer — instead of
// blocking its reader, and the lockstep barrier behind it, forever.
func TestTCPMeshSilentPeerFailsMesh(t *testing.T) {
	endpoints := buildEndpoints(t, "tcp", 2, transport.WithConnReadTimeout(50*time.Millisecond))
	defer endpoints[0].Close()
	defer endpoints[1].Close()
	_, _, err := endpoints[0].Recv()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("peer %v failed", model.NodeID(1))) {
		t.Fatalf("Recv beside a silent peer = %v, want an error naming peer %v", err, model.NodeID(1))
	}
}

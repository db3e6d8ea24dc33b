package transport

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

func TestConnStatsCountTCPTraffic(t *testing.T) {
	var serverStats, clientStats ConnStats
	l, err := ListenConn("127.0.0.1:0", WithConnStats(&serverStats))
	if err != nil {
		t.Fatalf("ListenConn: %v", err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := DialConn(l.Addr(), WithConnStats(&clientStats))
	if err != nil {
		t.Fatalf("DialConn: %v", err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()

	for i := 0; i < 3; i++ {
		if err := client.Send([]byte("ping!")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if _, err := server.Recv(); err != nil {
			t.Fatalf("Recv: %v", err)
		}
	}
	if err := server.Send([]byte("pong")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := client.Recv(); err != nil {
		t.Fatalf("Recv: %v", err)
	}

	cs, ss := clientStats.Snapshot(), serverStats.Snapshot()
	if cs.FramesSent != 3 || cs.BytesSent != 15 {
		t.Errorf("client sent %d frames / %d bytes, want 3/15", cs.FramesSent, cs.BytesSent)
	}
	if cs.FramesRecv != 1 || cs.BytesRecv != 4 {
		t.Errorf("client recv %d frames / %d bytes, want 1/4", cs.FramesRecv, cs.BytesRecv)
	}
	if ss.FramesRecv != 3 || ss.BytesRecv != 15 || ss.FramesSent != 1 {
		t.Errorf("server stats %v", ss)
	}
	if cs.Redials != 0 {
		t.Errorf("clean dial recorded %d redials", cs.Redials)
	}
	if cs.String() == "" {
		t.Error("snapshot String is empty")
	}
}

func TestDialConnCountsRedials(t *testing.T) {
	probe, err := ListenConn("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenConn: %v", err)
	}
	addr := probe.Addr()
	probe.Close()

	var stats ConnStats
	done := make(chan error, 1)
	go func() {
		c, err := DialConn(addr, WithConnStats(&stats))
		if c != nil {
			c.Close()
		}
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	l, err := ListenConn(addr)
	if err != nil {
		t.Fatalf("ListenConn (relisten): %v", err)
	}
	defer l.Close()
	if err := <-done; err != nil {
		t.Fatalf("DialConn: %v", err)
	}
	if got := stats.Redials.Load(); got == 0 {
		t.Error("dial against a missing listener recorded zero redials")
	}
}

func TestCountConnWrapsAnyConn(t *testing.T) {
	a, b := Pipe()
	var stats ConnStats
	counted := CountConn(a, &stats)
	if err := counted.Send([]byte("abc")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := b.Send([]byte("defgh")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := counted.Recv(); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	s := stats.Snapshot()
	if s.FramesSent != 1 || s.BytesSent != 3 || s.FramesRecv != 1 || s.BytesRecv != 5 {
		t.Errorf("counted pipe stats %v", s)
	}
	if CountConn(b, nil) != b {
		t.Error("CountConn(nil stats) should return the conn unwrapped")
	}
	counted.Close()
}

// TestRunnerTracerSeesDeliveries drives a two-node cluster over the
// memory mesh with a shared tracer: every delivered protocol message
// must reach it, mirroring sim.WithTracer's contract.
func TestRunnerTracerSeesDeliveries(t *testing.T) {
	const rounds = 3
	meshes := NewMemoryMesh(2)
	defer closeMeshes(meshes)
	sender := sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		return []model.Message{{To: 1, Kind: model.KindEcho, Payload: []byte{byte(round)}}}
	})
	procs := []sim.Process{sender, sim.Silent{}}
	tracer := &sim.RecordingTracer{}
	if _, err := MeshEngine(meshes)(procs, rounds, metrics.NewCounters(), tracer, nil); err != nil {
		t.Fatalf("MeshEngine: %v", err)
	}
	msgs := tracer.Messages()
	// Round r sends are delivered at step r+1, so the last round's send
	// is still in flight when the cluster stops — rounds−1 deliveries.
	if len(msgs) != rounds-1 {
		t.Fatalf("tracer saw %d deliveries, want %d", len(msgs), rounds-1)
	}
	for _, m := range msgs {
		if m.From != 0 || m.To != 1 || m.Kind != model.KindEcho {
			t.Errorf("unexpected traced message %+v", m)
		}
	}
}

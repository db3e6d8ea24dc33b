package transport

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/model"
)

// A boot that fails after some links are up must not leave them open:
// node 1 of 3 dials node 0, then a raw socket claims to be node 7 on
// node 1's listener. NewTCPMesh has to return the bad hello, node 0's
// end of the established link has to see it close, and no goroutine of
// the call may remain.
func TestTCPMeshFailedBootClosesLinks(t *testing.T) {
	lower, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lower.Close()
	reserve, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := reserve.Addr().String()
	reserve.Close()
	addrs := map[model.NodeID]string{0: lower.Addr().String(), 1: self, 2: "127.0.0.1:1"}

	before := runtime.NumGoroutine()
	booted := make(chan error, 1)
	go func() {
		m, err := NewTCPMesh(1, addrs)
		if err == nil {
			m.Close()
		}
		booted <- err
	}()

	link, err := lower.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	if peer, err := readHello(link, helloBootTimeout); err != nil || peer != 1 {
		t.Fatalf("hello on the lower peer's side = %v, %v; want node 1", peer, err)
	}

	intruder, err := dialBackoff(self, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer intruder.Close()
	if err := writeHello(intruder, 7); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-booted:
		if err == nil {
			t.Fatal("NewTCPMesh accepted a hello from node 7 of 3")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewTCPMesh still booting 5s after the bad hello")
	}

	link.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := link.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("lower peer's read after the failed boot = %v, want EOF (link closed)", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the failed boot, %d before", runtime.NumGoroutine(), before)
			break
		}
	}
}

// A peer that connects and never says hello must fail the boot, not hang
// it: with a read timeout on the links the hello gets that long.
func TestTCPMeshSilentDialerFailsBoot(t *testing.T) {
	reserve, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := reserve.Addr().String()
	reserve.Close()

	const timeout = 200 * time.Millisecond
	booted := make(chan error, 1)
	go func() {
		m, err := NewTCPMesh(0, map[model.NodeID]string{0: self, 1: "127.0.0.1:1"}, WithConnReadTimeout(timeout))
		if err == nil {
			m.Close()
		}
		booted <- err
	}()
	silent, err := dialBackoff(self, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	start := time.Now()
	select {
	case err := <-booted:
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("boot with a silent dialer = %v, want the hello's read timeout", err)
		}
		if waited := time.Since(start); waited < timeout/2 {
			t.Errorf("boot failed after %v, before the %v hello deadline could have passed", waited, timeout)
		}
	case <-time.After(helloBootTimeout / 2):
		t.Fatalf("NewTCPMesh still waiting for a hello %v after a %v read timeout", helloBootTimeout/2, timeout)
	}
}

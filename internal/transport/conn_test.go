package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestPipeRoundTripAndClose(t *testing.T) {
	a, b := Pipe()
	if err := a.Send([]byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := b.Recv()
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	// Closing EITHER end abruptly kills the link, dropping anything
	// buffered — the simulated-crash semantics the scheduler tests need.
	if err := a.Send([]byte("in flight")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	b.Close()
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after close = %v, want ErrClosed", err)
	}
	if err := a.Send([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after peer close = %v, want ErrClosed", err)
	}
}

func TestPipeAcceptor(t *testing.T) {
	acc := NewPipeAcceptor()
	done := make(chan Conn, 1)
	go func() {
		c, err := acc.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
		}
		done <- c
	}()
	client, err := acc.Dial()
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	server := <-done
	if err := client.Send([]byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got, err := server.Recv(); err != nil || string(got) != "ping" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	acc.Close()
	if _, err := acc.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept after close = %v, want ErrClosed", err)
	}
}

func TestTCPConnRoundTripWithDeadlines(t *testing.T) {
	l, err := ListenConn("127.0.0.1:0", WithConnReadTimeout(2*time.Second), WithConnWriteTimeout(2*time.Second))
	if err != nil {
		t.Fatalf("ListenConn: %v", err)
	}
	defer l.Close()
	accepted := make(chan Conn, 2)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	client, err := DialConn(l.Addr(), WithConnReadTimeout(2*time.Second))
	if err != nil {
		t.Fatalf("DialConn: %v", err)
	}
	server := <-accepted
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	if err := client.Send(payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got, err := server.Recv(); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Recv len=%d err=%v", len(got), err)
	}
	// A silent peer trips the read deadline instead of hanging forever.
	short, err := DialConn(l.Addr(), WithConnReadTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatalf("DialConn: %v", err)
	}
	<-accepted // drain the acceptor's second conn
	start := time.Now()
	if _, err := short.Recv(); err == nil {
		t.Fatal("Recv from silent peer returned nil error, want timeout")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("read deadline took %v to fire", time.Since(start))
	}
	client.Close()
	server.Close()
	short.Close()
}

func TestDialConnRetriesUntilListenerAppears(t *testing.T) {
	// Reserve an address, close it, dial it BEFORE the listener is back:
	// the capped-backoff dial window must bridge the gap.
	probe, err := ListenConn("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenConn: %v", err)
	}
	addr := probe.Addr()
	probe.Close()

	type dialed struct {
		conn Conn
		err  error
	}
	ch := make(chan dialed, 1)
	go func() {
		c, err := DialConn(addr)
		ch <- dialed{c, err}
	}()
	time.Sleep(100 * time.Millisecond)
	l, err := ListenConn(addr)
	if err != nil {
		t.Fatalf("ListenConn (relisten): %v", err)
	}
	defer l.Close()
	go l.Accept()
	d := <-ch
	if d.err != nil {
		t.Fatalf("DialConn with retry window: %v", d.err)
	}
	d.conn.Close()
}

// Package faults injects worker failures into scheduler links for the
// robustness tests: crash at the k-th batch, stall past the lease
// deadline, disconnect mid-result, corrupt result payloads. A Behavior
// filters the service frames crossing a worker's transport.Conn —
// batches in, results and heartbeats out — the same composable
// behavior-stack idiom internal/adversary uses for protocol-level
// faults, applied one layer down to the campaign control plane. Wrap a
// worker's conn before handing it to sched.RunWorker (or
// service.Server.ServeDialled) and the daemon itself stays untouched;
// the coordinator must survive whatever the stack does.
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - StallAtBatch, DisconnectAtResult, CorruptResultAt, CorruptAllResults and their methods, passthrough.Inbound: the unit fault suite fires each; CI fires only crash@2.
package faults

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/service"
	"repro/internal/transport"
)

// ErrInjected marks failures manufactured by this package, so tests can
// distinguish injected faults from real bugs.
var ErrInjected = errors.New("faults: injected failure")

// Behavior filters the frames crossing a wrapped conn. Inbound sees
// coordinator→worker frames (as Recv returns them), Outbound sees
// worker→coordinator frames (as Send submits them). Returning a nil
// frame silently drops it; returning an error kills the connection —
// the worker process "crashes". Behaviors run under the wrapper's lock,
// so counters need no atomics.
type Behavior interface {
	Inbound(frame []byte) ([]byte, error)
	Outbound(frame []byte) ([]byte, error)
}

// Wrap stacks behaviors over conn, applied in order on both directions.
func Wrap(conn transport.Conn, behaviors ...Behavior) transport.Conn {
	return &faultConn{inner: conn, stack: behaviors}
}

type faultConn struct {
	inner transport.Conn
	mu    sync.Mutex
	stack []Behavior
}

func (c *faultConn) Send(frame []byte) error {
	c.mu.Lock()
	f := frame
	for _, b := range c.stack {
		var err error
		if f, err = b.Outbound(f); err != nil {
			c.mu.Unlock()
			c.inner.Close()
			return err
		}
		if f == nil {
			c.mu.Unlock()
			return nil
		}
	}
	c.mu.Unlock()
	return c.inner.Send(f)
}

func (c *faultConn) Recv() ([]byte, error) {
	for {
		frame, err := c.inner.Recv()
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		f := frame
		for _, b := range c.stack {
			if f, err = b.Inbound(f); err != nil {
				c.mu.Unlock()
				c.inner.Close()
				return nil, err
			}
			if f == nil {
				break
			}
		}
		c.mu.Unlock()
		if f != nil {
			return f, nil
		}
	}
}

func (c *faultConn) Close() error { return c.inner.Close() }

// passthrough is the do-nothing base behaviors embed for the direction
// they leave alone.
type passthrough struct{}

func (passthrough) Inbound(f []byte) ([]byte, error)  { return f, nil }
func (passthrough) Outbound(f []byte) ([]byte, error) { return f, nil }

// CrashAtBatch kills the connection when the k-th batch (1-based)
// arrives: the worker "crashes" holding an unexecuted batch, and the
// coordinator sees an abrupt disconnect.
func CrashAtBatch(k int) Behavior { return &crashAtBatch{k: k} }

type crashAtBatch struct {
	passthrough
	k, seen int
}

func (c *crashAtBatch) Inbound(f []byte) ([]byte, error) {
	if transport.FrameKind(f) == service.KindBatch {
		c.seen++
		if c.seen >= c.k {
			return nil, fmt.Errorf("%w: crash at batch %d", ErrInjected, c.seen)
		}
	}
	return f, nil
}

// StallAtBatch turns the worker into a zombie from the k-th batch on:
// the batch is delivered, but every outbound frame — heartbeats and
// results alike — is silently dropped. The connection stays open, so
// only lease expiry can unstick the coordinator.
func StallAtBatch(k int) Behavior { return &stallAtBatch{k: k} }

type stallAtBatch struct {
	passthrough
	k, seen  int
	stalling bool
}

func (s *stallAtBatch) Inbound(f []byte) ([]byte, error) {
	if transport.FrameKind(f) == service.KindBatch {
		s.seen++
		if s.seen >= s.k {
			s.stalling = true
		}
	}
	return f, nil
}

func (s *stallAtBatch) Outbound(f []byte) ([]byte, error) {
	if s.stalling {
		return nil, nil
	}
	return f, nil
}

// DisconnectAtResult kills the connection in place of sending the k-th
// result (1-based): the worker did the work, then died before reporting
// it — the batch must be re-run elsewhere.
func DisconnectAtResult(k int) Behavior { return &disconnectAtResult{k: k} }

type disconnectAtResult struct {
	passthrough
	k, seen int
}

func (d *disconnectAtResult) Outbound(f []byte) ([]byte, error) {
	if transport.FrameKind(f) == service.KindResult {
		d.seen++
		if d.seen >= d.k {
			return nil, fmt.Errorf("%w: disconnect at result %d", ErrInjected, d.seen)
		}
	}
	return f, nil
}

// CorruptResultAt flips a byte in the k-th result frame (1-based),
// leaving later results clean: the checksum must catch it and the
// coordinator must requeue rather than aggregate garbage.
func CorruptResultAt(k int) Behavior { return &corruptResult{k: k} }

// CorruptAllResults flips a byte in EVERY result frame: the worker can
// never deliver a valid result, so its batches must retry elsewhere —
// or exhaust the budget and dead-letter.
func CorruptAllResults() Behavior { return &corruptResult{all: true} }

type corruptResult struct {
	passthrough
	k, seen int
	all     bool
}

func (c *corruptResult) Outbound(f []byte) ([]byte, error) {
	if transport.FrameKind(f) != service.KindResult {
		return f, nil
	}
	c.seen++
	if !c.all && c.seen != c.k {
		return f, nil
	}
	mangled := make([]byte, len(f))
	copy(mangled, f)
	mangled[len(mangled)-1] ^= 0xFF
	return mangled, nil
}

package sched

import (
	"fmt"

	"repro/internal/sig"
	"repro/internal/transport"
)

// The scheduler wire protocol: six framed message kinds multiplexed over
// one transport.Conn per worker. The envelope — the tagged hello and the
// SHA-256-checksummed payload frame that lease and result ride — is
// transport/rpc.go's, called where the frames are sent and received; a
// corrupted lease or result is DETECTED there and treated as a worker
// fault (requeue elsewhere). This file holds the kind table, the lease's
// extra fields and the three small frames that are the scheduler's own.

// Frame kinds. Exported so the fault-injection harness (sched/faults)
// can trigger on specific traffic (transport.FrameKind) without
// re-parsing whole messages.
const (
	// KindHello is the worker's first frame: protocol tag + worker name.
	KindHello = 1
	// KindLease carries a leased instance batch coordinator → worker.
	KindLease = 2
	// KindResult carries a completed batch's results worker → coordinator.
	KindResult = 3
	// KindNack reports a lease the worker could not execute.
	KindNack = 4
	// KindHeartbeat extends a running lease's deadline.
	KindHeartbeat = 5
	// KindShutdown tells the worker to drain and exit.
	KindShutdown = 6
)

// wireTag, carried in the hello, guards against cross-protocol
// connections.
const wireTag = "fdsched/v1"

// leaseMsg is a decoded lease frame.
type leaseMsg struct {
	ID       int
	Attempt  int
	Deadline int // milliseconds the worker has before the lease expires
	Payload  []byte
}

func encodeLease(id, attempt, deadlineMS int, payload []byte) []byte {
	return transport.EncodePayload(KindLease, id, payload, attempt, deadlineMS)
}

// decodeLease keeps the ID of a lease that fails its checksum, so the
// worker can NACK it precisely.
func decodeLease(frame []byte) (m leaseMsg, err error) {
	m.ID, m.Payload, err = transport.DecodePayload(frame, KindLease, "sched lease", &m.Attempt, &m.Deadline)
	return m, err
}

func encodeNack(id int, msg string) []byte {
	out := make([]byte, 0, 2*sig.IntFieldSize+sig.BytesFieldSize(len(msg)))
	out = sig.AppendInt(out, KindNack)
	out = sig.AppendInt(out, id)
	return sig.AppendString(out, msg)
}

func decodeNack(frame []byte) (id int, msg string, err error) {
	d := sig.NewDecoder(frame)
	if kind := d.Int(); kind != KindNack {
		return 0, "", fmt.Errorf("sched: expected nack, got frame kind %d", kind)
	}
	id = d.Int()
	msg = d.String()
	if ferr := d.Finish(); ferr != nil {
		return 0, "", fmt.Errorf("sched: bad nack frame: %w", ferr)
	}
	return id, msg, nil
}

func encodeHeartbeat(id int) []byte {
	out := make([]byte, 0, 2*sig.IntFieldSize)
	out = sig.AppendInt(out, KindHeartbeat)
	return sig.AppendInt(out, id)
}

func decodeHeartbeat(frame []byte) (id int, err error) {
	d := sig.NewDecoder(frame)
	if kind := d.Int(); kind != KindHeartbeat {
		return 0, fmt.Errorf("sched: expected heartbeat, got frame kind %d", kind)
	}
	id = d.Int()
	if ferr := d.Finish(); ferr != nil {
		return 0, fmt.Errorf("sched: bad heartbeat frame: %w", ferr)
	}
	return id, nil
}

func encodeShutdown(reason string) []byte {
	out := make([]byte, 0, sig.IntFieldSize+sig.BytesFieldSize(len(reason)))
	out = sig.AppendInt(out, KindShutdown)
	return sig.AppendString(out, reason)
}

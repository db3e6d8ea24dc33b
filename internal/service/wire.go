package service

import (
	"fmt"

	"repro/internal/sig"
)

// The agreement-service wire protocol: framed request/response kinds
// multiplexed over one transport.Conn per client connection. The
// envelope — the tagged hello and the SHA-256-checksummed payload frame
// that submit, result and stats-reply ride — is transport/rpc.go's,
// called where the frames are sent and received, so a corrupted frame
// is DETECTED there and fails the request instead of silently
// corrupting a verdict. This file holds the kind table, the reject
// codes and the frames that are the service's own. Many requests
// may be in flight on one connection at once — responses carry the
// client-chosen request ID, and arrive in completion order, not
// submission order.

// Frame kinds.
const (
	// KindHello is the client's first frame: protocol tag + tenant name.
	KindHello = 1
	// KindHelloAck confirms the hello: tag + the server's shard count.
	KindHelloAck = 2
	// KindSubmit carries one agreement request client → server.
	KindSubmit = 3
	// KindResult carries one completed request's reply server → client.
	KindResult = 4
	// KindReject refuses one request: admission control (queue full,
	// draining) or validation. Carries a retry-after hint in
	// milliseconds; 0 means do not retry (the request can never succeed).
	KindReject = 5
	// KindStats asks for the live server snapshot.
	KindStats = 6
	// KindStatsReply carries the snapshot JSON server → client (ID 0).
	KindStatsReply = 7
)

// Reject codes.
const (
	// RejectBusy: the tenant's queue on the request's shard is full.
	// Retry after the hinted delay — the explicit backpressure signal
	// that replaces unbounded buffering.
	RejectBusy = "busy"
	// RejectDraining: the server is shutting down and admits nothing new.
	RejectDraining = "draining"
	// RejectBadRequest: the request can never run (unknown protocol,
	// unsupported (n, t), unknown scheme). Never retried.
	RejectBadRequest = "bad-request"
)

// wireTag, carried in the hello and its ack, guards against
// cross-protocol connections.
const wireTag = "fdserve/v1"

func encodeHelloAck(shards int) []byte {
	out := make([]byte, 0, 2*sig.IntFieldSize+sig.BytesFieldSize(len(wireTag)))
	out = sig.AppendInt(out, KindHelloAck)
	out = sig.AppendString(out, wireTag)
	return sig.AppendInt(out, shards)
}

func decodeHelloAck(frame []byte) (shards int, err error) {
	d := sig.NewDecoder(frame)
	if kind := d.Int(); kind != KindHelloAck {
		return 0, fmt.Errorf("service: expected hello ack, got frame kind %d", kind)
	}
	if tag := d.String(); tag != wireTag {
		return 0, fmt.Errorf("service: bad protocol tag %q (want %s)", tag, wireTag)
	}
	shards = d.Int()
	if ferr := d.Finish(); ferr != nil {
		return 0, fmt.Errorf("service: bad hello ack: %w", ferr)
	}
	return shards, nil
}

func encodeReject(id int, code string, retryAfterMS int, msg string) []byte {
	out := make([]byte, 0, 3*sig.IntFieldSize+sig.BytesFieldSize(len(code))+sig.BytesFieldSize(len(msg)))
	out = sig.AppendInt(out, KindReject)
	out = sig.AppendInt(out, id)
	out = sig.AppendString(out, code)
	out = sig.AppendInt(out, retryAfterMS)
	return sig.AppendString(out, msg)
}

func decodeReject(frame []byte) (id int, code string, retryAfterMS int, msg string, err error) {
	d := sig.NewDecoder(frame)
	if kind := d.Int(); kind != KindReject {
		return 0, "", 0, "", fmt.Errorf("service: expected reject, got frame kind %d", kind)
	}
	id = d.Int()
	code = d.String()
	retryAfterMS = d.Int()
	msg = d.String()
	if ferr := d.Finish(); ferr != nil {
		return 0, "", 0, "", fmt.Errorf("service: bad reject frame: %w", ferr)
	}
	return id, code, retryAfterMS, msg, nil
}

func encodeStats() []byte {
	out := make([]byte, 0, sig.IntFieldSize)
	return sig.AppendInt(out, KindStats)
}

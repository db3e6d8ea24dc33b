package service

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/sig"
	"repro/internal/transport"
)

// The agreement-service wire protocol: framed request/response kinds
// multiplexed over one transport.Conn per connection. The envelope —
// the tagged hello and the SHA-256-checksummed payload frame — is
// transport/rpc.go's, so a corrupted frame is DETECTED there and fails
// the request instead of silently corrupting a verdict. This file holds
// the kind table, the reject codes and the frames that are the
// service's own. Many requests may be in flight on one connection at
// once — responses carry the client-chosen request ID, and arrive in
// completion order, not submission order.

// Frame kinds, exported for the scheduler (internal/sched), which
// leases batches to dialled-out sessions, and its fault harness.
const (
	// KindHello is a connection's first frame: protocol tag + the
	// client's tenant name, or the name of a server that dialled out.
	KindHello = 1
	// KindHelloAck confirms the hello: tag + the server's shard count.
	KindHelloAck = 2
	// KindSubmit carries one agreement request client → server.
	KindSubmit = 3
	// KindResult answers server → client: a request's Reply, or a
	// batch's []campaign.Result in batch order.
	KindResult = 4
	// KindReject refuses one request or a whole batch: admission control
	// (queue full, draining) or validation. Carries a retry-after hint in
	// milliseconds; 0 means do not retry (the request can never succeed).
	KindReject = 5
	// KindStats asks for the live server snapshot.
	KindStats = 6
	// KindStatsReply carries the snapshot JSON server → client (ID 0).
	KindStatsReply = 7
	// KindBatch carries []campaign.Instance client → server, and one
	// extra int: the milliseconds the client waits for a heartbeat before
	// giving the batch up.
	KindBatch = 8
	// KindHeartbeat tells the client, with an empty payload, that the
	// batch of its ID is still queued or running (server → client).
	KindHeartbeat = 9
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

// WireTag, carried in the hello and its ack, guards against
// cross-protocol connections.
const WireTag = "fdserve/v1"

func encodeHelloAck(shards int) []byte {
	out := make([]byte, 0, 2*sig.IntFieldSize+sig.BytesFieldSize(len(WireTag)))
	out = sig.AppendInt(out, KindHelloAck)
	out = sig.AppendString(out, WireTag)
	return sig.AppendInt(out, shards)
}

func decodeHelloAck(frame []byte) (shards int, err error) {
	d := sig.NewDecoder(frame)
	if kind := d.Int(); kind != KindHelloAck {
		return 0, fmt.Errorf("service: expected hello ack, got frame kind %d", kind)
	}
	if tag := d.String(); tag != WireTag {
		return 0, fmt.Errorf("service: bad protocol tag %q (want %s)", tag, WireTag)
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

// DecodeReject decodes a reject frame into the request or batch ID it
// refuses and the refusal.
func DecodeReject(frame []byte) (id int, rej *RejectError, err error) {
	d := sig.NewDecoder(frame)
	if kind := d.Int(); kind != KindReject {
		return 0, nil, fmt.Errorf("service: expected reject, got frame kind %d", kind)
	}
	id = d.Int()
	rej = &RejectError{Code: d.String(), RetryAfter: time.Duration(d.Int()) * time.Millisecond, Msg: d.String()}
	if ferr := d.Finish(); ferr != nil {
		return 0, nil, fmt.Errorf("service: bad reject frame: %w", ferr)
	}
	return id, rej, nil
}

// EncodeBatch frames a batch of instances under id, with the deadline
// the client waits for a heartbeat.
func EncodeBatch(id int, deadline time.Duration, batch []campaign.Instance) ([]byte, error) {
	payload, err := json.Marshal(batch)
	if err != nil {
		return nil, err
	}
	return transport.EncodePayload(KindBatch, id, payload, int(deadline/time.Millisecond)), nil
}

func encodeStats() []byte {
	out := make([]byte, 0, sig.IntFieldSize)
	return sig.AppendInt(out, KindStats)
}

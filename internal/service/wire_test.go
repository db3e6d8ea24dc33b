package service

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/transport"
)

func TestHelloRoundTrip(t *testing.T) {
	tenant, err := transport.DecodeHello(transport.EncodeHello(KindHello, wireTag, "alpha"), KindHello, wireTag)
	if err != nil {
		t.Fatalf("DecodeHello: %v", err)
	}
	if tenant != "alpha" {
		t.Fatalf("tenant = %q, want alpha", tenant)
	}
	if _, err := transport.DecodeHello(transport.EncodeHello(KindHello, wireTag, ""), KindHello, wireTag); err == nil {
		t.Fatalf("empty tenant accepted")
	}
	if _, err := transport.DecodeHello(encodeHelloAck(4), KindHello, wireTag); err == nil {
		t.Fatalf("hello ack accepted as hello")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	shards, err := decodeHelloAck(encodeHelloAck(7))
	if err != nil {
		t.Fatalf("decodeHelloAck: %v", err)
	}
	if shards != 7 {
		t.Fatalf("shards = %d, want 7", shards)
	}
}

func TestPayloadFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"protocol":"chain","n":4,"t":1}`)
	frame := transport.EncodePayload(KindSubmit, 42, payload)
	if transport.FrameKind(frame) != KindSubmit {
		t.Fatalf("FrameKind = %d, want %d", transport.FrameKind(frame), KindSubmit)
	}
	id, got, err := transport.DecodePayload(frame, KindSubmit, "service submit")
	if err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	if id != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("decoded (%d, %q), want (42, %q)", id, got, payload)
	}
	if _, _, err := transport.DecodePayload(frame, KindResult, "service result"); err == nil {
		t.Fatalf("submit frame accepted as result")
	}
}

// A flipped payload byte must fail the checksum, not silently decode —
// the service's whole integrity story over untrusted links.
func TestPayloadChecksumDetectsCorruption(t *testing.T) {
	payload := []byte(`{"result":{"verdict":true}}`)
	frame := transport.EncodePayload(KindResult, 7, payload)
	for i := len(frame) - len(payload); i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, _, err := transport.DecodePayload(mut, KindResult, "service result"); err == nil {
			t.Fatalf("corrupted payload byte %d decoded cleanly", i)
		} else if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "frame") {
			t.Fatalf("unexpected error for byte %d: %v", i, err)
		}
	}
}

func TestRejectRoundTrip(t *testing.T) {
	id, code, retryMS, msg, err := decodeReject(encodeReject(9, RejectBusy, 50, "queue full"))
	if err != nil {
		t.Fatalf("decodeReject: %v", err)
	}
	if id != 9 || code != RejectBusy || retryMS != 50 || msg != "queue full" {
		t.Fatalf("decoded (%d, %q, %d, %q)", id, code, retryMS, msg)
	}
}

func TestStatsReplyRoundTrip(t *testing.T) {
	frame := transport.EncodePayload(KindStatsReply, 0, []byte(`{"schema":"fdserve-stats/v1"}`))
	_, payload, err := transport.DecodePayload(frame, KindStatsReply, "service stats reply")
	if err != nil {
		t.Fatalf("decode stats reply: %v", err)
	}
	if !bytes.Equal(payload, []byte(`{"schema":"fdserve-stats/v1"}`)) {
		t.Fatalf("payload = %q", payload)
	}
	if transport.FrameKind(encodeStats()) != KindStats {
		t.Fatalf("stats frame kind = %d", transport.FrameKind(encodeStats()))
	}
}

// goldenFrames pins the service's wire format: one frame per kind,
// whose hex was printed by the encoders of the commit before the
// envelope moved to transport/rpc.go (8e18f9c), called with the
// arguments below. A client built at that commit must keep talking to
// this server, so the hex is never edited to make the test pass.
var goldenFrames = []struct {
	name  string
	frame []byte
	hex   string
}{
	{"hello", transport.EncodeHello(KindHello, wireTag, "alpha"),
		"00000000000000010000000a666473657276652f763100000005616c706861"},
	{"hello ack", encodeHelloAck(4),
		"00000000000000020000000a666473657276652f76310000000000000004"},
	{"submit", transport.EncodePayload(KindSubmit, 42, []byte(`{"protocol":"chain","n":4,"t":1}`)),
		"0000000000000003000000000000002a0000002095020ee4011e57df02486413183af5466f1b35b46999d43e8e00bb74c5c30d39000000207b2270726f746f636f6c223a22636861696e222c226e223a342c2274223a317d"},
	{"result", transport.EncodePayload(KindResult, 42, []byte(`{"result":{"verdict":true}}`)),
		"0000000000000004000000000000002a0000002066fe0021ddbb027b78908d883bf9f9f68e48586e86e1609a627b7485c454a6fb0000001b7b22726573756c74223a7b2276657264696374223a747275657d7d"},
	{"reject", encodeReject(9, RejectBusy, 50, "queue full"),
		"00000000000000050000000000000009000000046275737900000000000000320000000a71756575652066756c6c"},
	{"stats", encodeStats(),
		"0000000000000006"},
	{"stats reply", transport.EncodePayload(KindStatsReply, 0, []byte(`{"schema":"fdserve-stats/v1"}`)),
		"00000000000000070000000000000000000000208365e3bf6d8842884f25044e68abd2f513406a535240b76bd07a4bd0cdebdd450000001d7b22736368656d61223a22666473657276652d73746174732f7631227d"},
}

func TestGoldenWireBytes(t *testing.T) {
	for _, g := range goldenFrames {
		if got := hex.EncodeToString(g.frame); got != g.hex {
			t.Errorf("%s frame changed on the wire:\n got %s\nwant %s", g.name, got, g.hex)
		}
	}
}

// TestGoldenFrameBitFlips flips every single bit of the checksum and of
// the payload in the golden submit, result and stats-reply frames: each
// must fail decode with a checksum error that names the frame.
func TestGoldenFrameBitFlips(t *testing.T) {
	const sumAt, sumLen, lenPrefix = 2*8 + 4, 32, 4
	for _, tc := range []struct {
		name string
		kind int
	}{{"submit", KindSubmit}, {"result", KindResult}, {"stats reply", KindStatsReply}} {
		var golden []byte
		for _, g := range goldenFrames {
			if g.name == tc.name {
				golden, _ = hex.DecodeString(g.hex)
			}
		}
		what := "service " + tc.name
		if _, _, err := transport.DecodePayload(golden, tc.kind, what); err != nil {
			t.Fatalf("golden %s does not decode: %v", tc.name, err)
		}
		for i := sumAt; i < len(golden); i++ {
			if i >= sumAt+sumLen && i < sumAt+sumLen+lenPrefix {
				continue // the payload's length prefix: a shape error, not a checksum one
			}
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), golden...)
				mut[i] ^= 1 << bit
				_, _, err := transport.DecodePayload(mut, tc.kind, what)
				if err == nil || !strings.Contains(err.Error(), "checksum") || !strings.Contains(err.Error(), tc.name) {
					t.Fatalf("%s: bit %d of byte %d flipped: err = %v, want a checksum error naming the frame", tc.name, bit, i, err)
				}
			}
		}
	}
}

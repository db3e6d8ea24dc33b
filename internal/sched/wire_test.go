package sched

import (
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestWireRoundTrips(t *testing.T) {
	name, err := transport.DecodeHello(transport.EncodeHello(KindHello, wireTag, "w1"), KindHello, wireTag)
	if err != nil || name != "w1" {
		t.Fatalf("hello round-trip = %q, %v", name, err)
	}
	payload := []byte(`[{"index":0}]`)
	lease, err := decodeLease(encodeLease(7, 2, 1500, payload))
	if err != nil {
		t.Fatalf("lease round-trip: %v", err)
	}
	if lease.ID != 7 || lease.Attempt != 2 || lease.Deadline != 1500 || string(lease.Payload) != string(payload) {
		t.Fatalf("lease round-trip mangled: %+v", lease)
	}
	rid, rp, err := transport.DecodePayload(transport.EncodePayload(KindResult, 7, payload), KindResult, "sched result")
	if err != nil || rid != 7 || string(rp) != string(payload) {
		t.Fatalf("result round-trip = %d, %q, %v", rid, rp, err)
	}
	id, msg, err := decodeNack(encodeNack(9, "boom"))
	if err != nil || id != 9 || msg != "boom" {
		t.Fatalf("nack round-trip = %d, %q, %v", id, msg, err)
	}
	if id, err := decodeHeartbeat(encodeHeartbeat(4)); err != nil || id != 4 {
		t.Fatalf("heartbeat round-trip = %d, %v", id, err)
	}
	for kind, frame := range map[int][]byte{
		KindHello:     transport.EncodeHello(KindHello, wireTag, "x"),
		KindLease:     encodeLease(1, 1, 1, payload),
		KindResult:    transport.EncodePayload(KindResult, 1, payload),
		KindNack:      encodeNack(1, ""),
		KindHeartbeat: encodeHeartbeat(1),
		KindShutdown:  encodeShutdown("done"),
	} {
		if got := transport.FrameKind(frame); got != kind {
			t.Errorf("FrameKind = %d, want %d", got, kind)
		}
	}
}

func TestWireChecksumCatchesCorruption(t *testing.T) {
	payload := []byte(`[{"index":0,"agreed":true}]`)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"lease", encodeLease(3, 1, 1000, payload)},
		{"result", transport.EncodePayload(KindResult, 3, payload)},
	} {
		frame := append([]byte(nil), tc.frame...)
		frame[len(frame)-1] ^= 0xFF
		var id int
		var err error
		if tc.name == "lease" {
			var m leaseMsg
			m, err = decodeLease(frame)
			id = m.ID
		} else {
			id, _, err = transport.DecodePayload(frame, KindResult, "sched result")
		}
		// The ID must survive corruption so the worker can NACK
		// precisely.
		if id != 3 {
			t.Errorf("%s: corrupt frame lost ID: %d", tc.name, id)
		}
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("%s: corrupted payload decoded without checksum error: %v", tc.name, err)
		}
	}
	// A hello from a different protocol is refused by tag.
	if _, err := transport.DecodeHello(encodeLease(1, 1, 1, payload), KindHello, wireTag); err == nil {
		t.Error("DecodeHello accepted a lease frame")
	}
}

// goldenFrames pins the scheduler's wire format: one frame per kind,
// whose hex was printed by the encoders of the commit before the
// envelope moved to transport/rpc.go (8e18f9c), called with the
// arguments below. A worker built at that commit must keep talking to
// this coordinator, so the hex is never edited to make the test pass.
var goldenFrames = []struct {
	name  string
	frame []byte
	hex   string
}{
	{"hello", transport.EncodeHello(KindHello, wireTag, "w1"),
		"00000000000000010000000a666473636865642f7631000000027731"},
	{"lease", encodeLease(7, 2, 1500, []byte(`[{"index":0}]`)),
		"00000000000000020000000000000007000000000000000200000000000005dc00000020cb03dfa191224bfd69608a08701db9bbd3a0606d74d55ce83e6ac749d9c2ea830000000d5b7b22696e646578223a307d5d"},
	{"result", transport.EncodePayload(KindResult, 7, []byte(`[{"index":0}]`)),
		"0000000000000003000000000000000700000020cb03dfa191224bfd69608a08701db9bbd3a0606d74d55ce83e6ac749d9c2ea830000000d5b7b22696e646578223a307d5d"},
	{"nack", encodeNack(9, "boom"),
		"0000000000000004000000000000000900000004626f6f6d"},
	{"heartbeat", encodeHeartbeat(4),
		"00000000000000050000000000000004"},
	{"shutdown", encodeShutdown("campaign complete"),
		"00000000000000060000001163616d706169676e20636f6d706c657465"},
}

func TestGoldenWireBytes(t *testing.T) {
	for _, g := range goldenFrames {
		if got := hex.EncodeToString(g.frame); got != g.hex {
			t.Errorf("%s frame changed on the wire:\n got %s\nwant %s", g.name, got, g.hex)
		}
	}
}

// TestGoldenFrameBitFlips flips every single bit of the checksum and of
// the payload in the golden lease and result frames: each must fail
// decode with a checksum error that names the frame.
func TestGoldenFrameBitFlips(t *testing.T) {
	const sumLen, lenPrefix = 32, 4
	for _, tc := range []struct {
		name   string
		extras int
		decode func([]byte) error
	}{
		{"lease", 2, func(f []byte) error { _, err := decodeLease(f); return err }},
		{"result", 0, func(f []byte) error {
			_, _, err := transport.DecodePayload(f, KindResult, "sched result")
			return err
		}},
	} {
		var golden []byte
		for _, g := range goldenFrames {
			if g.name == tc.name {
				golden, _ = hex.DecodeString(g.hex)
			}
		}
		if err := tc.decode(golden); err != nil {
			t.Fatalf("golden %s does not decode: %v", tc.name, err)
		}
		sumAt := (2+tc.extras)*8 + lenPrefix
		payloadAt := sumAt + sumLen + lenPrefix
		for i := sumAt; i < len(golden); i++ {
			if i >= sumAt+sumLen && i < payloadAt {
				continue // the payload's length prefix: a shape error, not a checksum one
			}
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), golden...)
				mut[i] ^= 1 << bit
				err := tc.decode(mut)
				if err == nil || !strings.Contains(err.Error(), "checksum") || !strings.Contains(err.Error(), tc.name) {
					t.Fatalf("%s: bit %d of byte %d flipped: err = %v, want a checksum error naming the frame", tc.name, bit, i, err)
				}
			}
		}
	}
}

func TestBackoffDelayDeterministicAndCapped(t *testing.T) {
	cfg := Config{BackoffBase: 50 * time.Millisecond, BackoffMax: 2 * time.Second}.withDefaults()
	if a, b := cfg.backoffDelay(3, 2), cfg.backoffDelay(3, 2); a != b {
		t.Fatalf("backoff not deterministic: %v vs %v", a, b)
	}
	if a, b := cfg.backoffDelay(3, 1), cfg.backoffDelay(4, 1); a == b {
		t.Fatalf("jitter did not separate batches: both %v", a)
	}
	for attempt := 1; attempt <= 20; attempt++ {
		d := cfg.backoffDelay(0, attempt)
		if d < cfg.BackoffBase || d > cfg.BackoffMax+cfg.BackoffMax/4 {
			t.Fatalf("attempt %d: delay %v outside [base, max+max/4]", attempt, d)
		}
	}
	// The exponential portion grows until the cap.
	if cfg.backoffDelay(0, 1) >= cfg.BackoffMax {
		t.Fatal("first retry already at cap")
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.BatchSize < 1 || c.LeaseTTL <= 0 || c.RetryBudget < 1 ||
		c.BackoffBase <= 0 || c.BackoffMax <= 0 || c.MinWorkers < 1 || c.NoWorkerGrace <= 0 {
		t.Fatalf("zero Config did not default every field: %+v", c)
	}
}

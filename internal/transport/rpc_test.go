package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenRPCFrames is the fuzz seed corpus: the frame of every kind the
// scheduler and the agreement service put on the wire, as pinned by the
// golden tables in sched/wire_test.go and service/wire_test.go.
var goldenRPCFrames = []string{
	// sched: hello, lease, result, nack, heartbeat, shutdown
	"00000000000000010000000a666473636865642f7631000000027731",
	"00000000000000020000000000000007000000000000000200000000000005dc00000020cb03dfa191224bfd69608a08701db9bbd3a0606d74d55ce83e6ac749d9c2ea830000000d5b7b22696e646578223a307d5d",
	"0000000000000003000000000000000700000020cb03dfa191224bfd69608a08701db9bbd3a0606d74d55ce83e6ac749d9c2ea830000000d5b7b22696e646578223a307d5d",
	"0000000000000004000000000000000900000004626f6f6d",
	"00000000000000050000000000000004",
	"00000000000000060000001163616d706169676e20636f6d706c657465",
	// service: hello, hello ack, submit, result, reject, stats, stats reply
	"00000000000000010000000a666473657276652f763100000005616c706861",
	"00000000000000020000000a666473657276652f76310000000000000004",
	"0000000000000003000000000000002a0000002095020ee4011e57df02486413183af5466f1b35b46999d43e8e00bb74c5c30d39000000207b2270726f746f636f6c223a22636861696e222c226e223a342c2274223a317d",
	"0000000000000004000000000000002a0000002066fe0021ddbb027b78908d883bf9f9f68e48586e86e1609a627b7485c454a6fb0000001b7b22726573756c74223a7b2276657264696374223a747275657d7d",
	"00000000000000050000000000000009000000046275737900000000000000320000000a71756575652066756c6c",
	"0000000000000006",
	"00000000000000070000000000000000000000208365e3bf6d8842884f25044e68abd2f513406a535240b76bd07a4bd0cdebdd450000001d7b22736368656d61223a22666473657276652d73746174732f7631227d",
}

// FuzzRPCFrame feeds arbitrary bytes to every decoder of the envelope —
// the one surface of the long-lived processes a remote peer writes to
// directly. None may panic; a payload is only ever returned with the
// SHA-256 the frame carried; and whatever the encoders build from the
// same bytes decodes back to it.
func FuzzRPCFrame(f *testing.F) {
	for _, h := range goldenRPCFrames {
		frame, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		kind := FrameKind(frame)
		tag := "fuzz/v1"
		if name, err := DecodeHello(frame, kind, tag); err == nil {
			if name == "" || !bytes.Equal(EncodeHello(kind, tag, name), frame) {
				t.Fatalf("hello decoded to %q but does not re-encode to its frame", name)
			}
		}
		for _, extras := range []int{0, 2, 7} {
			vals := make([]int, extras)
			ptrs := make([]*int, extras)
			for i := range vals {
				ptrs[i] = &vals[i]
			}
			id, payload, err := DecodePayload(frame, kind, "fuzz", ptrs...)
			if err != nil {
				if payload != nil {
					t.Fatalf("extras=%d: payload returned beside error %v", extras, err)
				}
				continue
			}
			// A frame that decodes is exactly what the encoder builds
			// from the decoded fields, so the payload it returned is
			// the one the carried checksum covers.
			if !bytes.Equal(EncodePayload(kind, id, payload, vals...), frame) {
				t.Fatalf("extras=%d: decoded frame does not re-encode to itself", extras)
			}
			sumAt := (2+extras)*8 + 4
			if want := sha256.Sum256(payload); !bytes.Equal(frame[sumAt:sumAt+len(want)], want[:]) {
				t.Fatalf("extras=%d: payload returned with a checksum other than the carried one", extras)
			}
		}

		// Encoder outputs decode to their inputs, with the fuzz bytes
		// as name and payload.
		if len(frame) > 0 {
			name, err := DecodeHello(EncodeHello(1, tag, string(frame)), 1, tag)
			if err != nil || name != string(frame) {
				t.Fatalf("hello round-trip = %q, %v", name, err)
			}
		}
		id, a, b := len(frame), kind, -len(frame)
		var gotA, gotB int
		gotID, payload, err := DecodePayload(EncodePayload(2, id, frame, a, b), 2, "fuzz", &gotA, &gotB)
		if err != nil || gotID != id || gotA != a || gotB != b || !bytes.Equal(payload, frame) {
			t.Fatalf("payload round-trip = (%d, %d, %d, %q, %v)", gotID, gotA, gotB, payload, err)
		}
	})
}

package sig

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"testing"
)

// stdlibMAC is crypto/hmac's HMAC-SHA256, the oracle of hmacPredicate.mac.
func stdlibMAC(key, msg []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(msg)
	return h.Sum(nil)
}

// FuzzHMACMatchesStdlib: for any key (empty, a block, longer than a block
// and hashed first) and any message (empty, over a block), Sign is
// crypto/hmac's MAC byte for byte, and Test accepts exactly what
// hmac.Equal against that MAC accepts — the MAC itself, and neither a
// flipped bit of it nor a truncation or extension.
func FuzzHMACMatchesStdlib(f *testing.F) {
	f.Add(bytes.Repeat([]byte{1}, hmacKeySize), []byte{}, uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{2}, hmacKeySize), bytes.Repeat([]byte("m"), 200), uint16(7), uint8(0x80))
	f.Add([]byte{}, []byte("no key"), uint16(31), uint8(1))
	f.Add(bytes.Repeat([]byte{3}, sha256.BlockSize), bytes.Repeat([]byte("b"), sha256.BlockSize), uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{4}, sha256.BlockSize+1), []byte("long key"), uint16(40), uint8(0x10))
	f.Fuzz(func(t *testing.T, key, msg []byte, flipAt uint16, flipMask uint8) {
		want := stdlibMAC(key, msg)
		signer := &hmacSigner{pred: &hmacPredicate{key: key}}
		got, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Sign = %x, crypto/hmac = %x", got, want)
		}
		pred := signer.Predicate()
		candidates := [][]byte{want, want[:len(want)-1], append(bytes.Clone(want), 0), nil}
		flipped := bytes.Clone(want)
		flipped[int(flipAt)%len(flipped)] ^= flipMask
		candidates = append(candidates, flipped)
		for _, sg := range candidates {
			if got, want := pred.Test(msg, sg), hmac.Equal(sg, want); got != want {
				t.Fatalf("Test(%x) = %v, hmac.Equal = %v", sg, got, want)
			}
		}
	})
}

// TestHMACAllocs pins the HMAC scheme's per-call cost: Sign allocates the
// MAC it returns and nothing else, Test nothing. hmac.New made a fresh
// keyed state (two digests and two padded key blocks) on every call.
func TestHMACAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	signer := &hmacSigner{pred: &hmacPredicate{key: bytes.Repeat([]byte{9}, hmacKeySize)}}
	msg := bytes.Repeat([]byte("statement"), 40)
	mac, _ := signer.Sign(msg)
	if allocs := testing.AllocsPerRun(100, func() { signer.Sign(msg) }); allocs > 1 {
		t.Errorf("hmac Sign allocates %.1f times, want at most 1 (the MAC)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { signer.pred.Test(msg, mac) }); allocs != 0 {
		t.Errorf("hmac Test allocates %.1f times, want 0", allocs)
	}
}

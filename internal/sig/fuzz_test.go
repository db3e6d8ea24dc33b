package sig

import (
	"bytes"
	"testing"

	"repro/internal/model"
)

// Native fuzz targets for the wire decoders. Byzantine nodes control
// every byte they send, so "no panic, no misbehaviour on arbitrary input"
// is a protocol-level security property, not just hygiene. Run with
//
//	go test -fuzz=FuzzUnmarshalChain ./internal/sig
//
// In normal test runs the seed corpus doubles as a regression suite.

func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 'x'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(NewEncoder().Bytes([]byte("v")).Int(-1).Uint64(1 << 60).Encoding())
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		d.Bytes()
		d.Int()
		d.Uint64()
		_ = d.String()
		_ = d.Finish()
	})
}

func FuzzUnmarshalChain(f *testing.F) {
	// Seed with a valid chain so the fuzzer mutates meaningful structure.
	scheme, err := ByName(SchemeToy)
	if err != nil {
		f.Fatal(err)
	}
	s0, err := scheme.Generate(bytes.NewReader(bytes.Repeat([]byte{7}, 64)))
	if err != nil {
		f.Fatal(err)
	}
	chain, err := NewChain([]byte("seed value"), s0)
	if err != nil {
		f.Fatal(err)
	}
	ext, err := chain.Extend(0, s0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chain.Marshal())
	f.Add(ext.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})

	dir := MapDirectory{0: s0.Predicate(), 1: s0.Predicate()}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalChain(data)
		if err != nil {
			return
		}
		// Whatever parsed must verify deterministically and re-marshal to
		// an equivalent parse.
		_, _ = c.Verify(model.NodeID(0), dir)
		re, err := UnmarshalChain(c.Marshal())
		if err != nil {
			t.Fatalf("remarshal of parsed chain failed: %v", err)
		}
		if !bytes.Equal(re.Value(), c.Value()) || re.Len() != c.Len() {
			t.Fatalf("marshal round trip changed the chain")
		}
	})
}

// FuzzChainVerifyMemo is the randomized differential for the prefix
// memo: a chain of random depth, a random innermost prefix of it verified
// beforehand, one bit of its wire encoding flipped (value, count, a name
// or a signature — wherever it lands). Whatever still parses must verify
// exactly as the memo-free reference does, the first time and again.
func FuzzChainVerifyMemo(f *testing.F) {
	const maxDepth = 8
	scheme, err := ByName(SchemeToy)
	if err != nil {
		f.Fatal(err)
	}
	signers := make([]Signer, maxDepth)
	preds := make(MapDirectory, maxDepth)
	for i := range signers {
		if signers[i], err = scheme.Generate(bytes.NewReader(bytes.Repeat([]byte{byte(i + 1)}, 64))); err != nil {
			f.Fatal(err)
		}
		preds[model.NodeID(i)] = signers[i].Predicate()
	}
	f.Add([]byte("v"), uint8(1), uint8(0), uint16(0), uint8(0))
	f.Add([]byte("seed value"), uint8(6), uint8(3), uint16(40), uint8(1))
	f.Add([]byte{}, uint8(8), uint8(8), uint16(9), uint8(0x80))
	f.Add([]byte("untouched"), uint8(4), uint8(2), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, value []byte, depth, warm uint8, flipAt uint16, flipMask uint8) {
		k := 1 + int(depth)%maxDepth
		c, err := NewChain(value, signers[0])
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < k; i++ {
			if c, err = c.Extend(model.NodeID(i-1), signers[i]); err != nil {
				t.Fatal(err)
			}
		}
		dir := memoDir{preds, new(VerifyMemo)}
		if p := int(warm) % (k + 1); p > 0 {
			if _, err := prefixOf(c, p).Verify(model.NodeID(p-1), dir); err != nil {
				t.Fatalf("warming %d of %d layers: %v", p, k, err)
			}
		}
		wire := c.Marshal()
		wire[int(flipAt)%len(wire)] ^= flipMask
		parsed, err := UnmarshalChain(wire)
		if err != nil {
			return
		}
		sender := model.NodeID(k - 1)
		want := verifyOutcome(parsed.verifySerial(sender, dir))
		for _, pass := range []string{"first", "second"} {
			if got := verifyOutcome(parsed.Verify(sender, dir)); !got.equal(want) {
				t.Fatalf("%s Verify = %+v, serial = %+v", pass, got, want)
			}
		}
	})
}

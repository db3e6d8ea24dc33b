package sig

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
		wire := bytes.Clone(c.Marshal())
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

// FuzzChainMatchesReference is the differential for the encoding-backed
// Chain: a chain of random depth under random assignee names (some with
// no predicate in the directory), built step by step beside the
// spine-based reference (chain_ref_test.go), then one bit of its wire
// encoding flipped, and arbitrary bytes. At every step NewChain, Extend,
// Marshal, MarshalTo, Value, Len, Signers, Inner, the nested encoding and
// Verify (cold and warm, and VerifyTo behind a prefix) must agree with the
// reference byte for byte; UnmarshalChain must accept exactly what the
// reference accepts, refusing the rest with ErrChainEncoding.
func FuzzChainMatchesReference(f *testing.F) {
	const maxDepth = 8
	scheme, err := ByName(SchemeToy)
	if err != nil {
		f.Fatal(err)
	}
	signers := make([]Signer, maxDepth)
	dir := make(MapDirectory, maxDepth)
	for i := range signers {
		if signers[i], err = scheme.Generate(bytes.NewReader(bytes.Repeat([]byte{byte(i + 1)}, 64))); err != nil {
			f.Fatal(err)
		}
		dir[model.NodeID(i)] = signers[i].Predicate()
	}
	f.Add([]byte("v"), []byte{}, uint16(0), uint8(0), []byte{})
	f.Add([]byte("seed value"), []byte{0, 1, 2, 3, 4, 5}, uint16(40), uint8(1), []byte{0, 0, 0, 0})
	f.Add([]byte{}, []byte{0, 9, 2, 0xff}, uint16(17), uint8(0x80), NewEncoder().Bytes([]byte("v")).Int(1<<16).Encoding())
	f.Add(bytes.Repeat([]byte("long value "), 20), []byte{0, 1, 2, 3, 4, 5, 6}, uint16(300), uint8(0xff), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, value, names []byte, flipAt uint16, flipMask uint8, raw []byte) {
		c, err := NewChain(value, signers[0])
		if err != nil {
			t.Fatal(err)
		}
		r, err := refNewChain(value, signers[0])
		if err != nil {
			t.Fatal(err)
		}
		depth := 1 + len(names)%maxDepth
		sender := model.NodeID(0)
		checkChainAgainstRef(t, "NewChain", c, r, dir, sender)
		for i := 1; i < depth; i++ {
			// Mostly the honest predecessor; otherwise any name, known or not.
			assignee := model.NodeID(i - 1)
			if b := names[i-1]; b&0x80 != 0 {
				assignee = model.NodeID(int(b&0x7f)%(maxDepth+2) - 1)
			}
			if c, err = c.Extend(assignee, signers[i]); err != nil {
				t.Fatal(err)
			}
			if r, err = r.Extend(assignee, signers[i]); err != nil {
				t.Fatal(err)
			}
			sender = model.NodeID(i)
			checkChainAgainstRef(t, fmt.Sprintf("Extend %d", i), c, r, dir, sender)
		}
		wire := bytes.Clone(c.Marshal())
		wire[int(flipAt)%len(wire)] ^= flipMask
		for _, data := range [][]byte{wire, raw} {
			pc, errC := UnmarshalChain(data)
			pr, errR := refUnmarshalChain(data)
			if (errC == nil) != (errR == nil) {
				t.Fatalf("UnmarshalChain err = %v, reference err = %v", errC, errR)
			}
			if errC != nil {
				if !errors.Is(errC, ErrChainEncoding) || !errors.Is(errR, ErrChainEncoding) {
					t.Fatalf("UnmarshalChain err = %v, reference err = %v: want ErrChainEncoding from both", errC, errR)
				}
				continue
			}
			checkChainAgainstRef(t, "UnmarshalChain", pc, pr, dir, sender)
			ec, err := pc.Extend(sender, signers[0])
			if err != nil {
				t.Fatal(err)
			}
			er, err := pr.Extend(sender, signers[0])
			if err != nil {
				t.Fatal(err)
			}
			checkChainAgainstRef(t, "Extend of a parsed chain", ec, er, dir, 0)
		}
	})
}

// checkChainAgainstRef fails t unless c and its reference twin r agree on
// every accessor, on Inner and on verification from sender under dir.
func checkChainAgainstRef(t *testing.T, where string, c Chain, r *refChain, dir Directory, sender model.NodeID) {
	t.Helper()
	wire := r.Marshal()
	if !bytes.Equal(c.Marshal(), wire) || c.MarshalSize() != len(wire) || !bytes.Equal(c.MarshalTo([]byte("p")), append([]byte("p"), wire...)) {
		t.Fatalf("%s: Marshal = %x, reference %x", where, c.Marshal(), wire)
	}
	if !bytes.Equal(c.Value(), r.Value()) || c.Len() != r.Len() {
		t.Fatalf("%s: value %q, %d layers; reference %q, %d", where, c.Value(), c.Len(), r.Value(), r.Len())
	}
	if got, want := c.Signers(sender), r.Signers(sender); !slices.Equal(got, want) {
		t.Fatalf("%s: Signers = %v, reference %v", where, got, want)
	}
	if got, want := nestedOf(c), r.nestedEncoding(); !bytes.Equal(got, want) {
		t.Fatalf("%s: nested encoding = %x, reference %x", where, got, want)
	}
	switch ci, ri := c.Inner(), r.Inner(); {
	case (ci.Len() == 0) != (ri == nil):
		t.Fatalf("%s: Inner empty = %v, reference nil = %v", where, ci.Len() == 0, ri == nil)
	case ri != nil && !bytes.Equal(ci.Marshal(), ri.Marshal()):
		t.Fatalf("%s: Inner = %x, reference %x", where, ci.Marshal(), ri.Marshal())
	}
	want := verifyOutcome(r.verify(sender, dir))
	memo := memoDir{dir, new(VerifyMemo)}
	for _, pass := range []string{"cold", "warm"} {
		if got := verifyOutcome(c.Verify(sender, memo)); !got.equal(want) {
			t.Fatalf("%s: %s Verify = %+v, reference %+v", where, pass, got, want)
		}
	}
	got, err := c.VerifyTo([]model.NodeID{-7}, sender, memo)
	if !verifyOutcome(got[1:], err).equal(want) || got[0] != -7 || (err != nil && len(got) != 1) {
		t.Fatalf("%s: VerifyTo behind a prefix = %v, %v; reference %+v", where, got, err, want)
	}
}

package sig

import (
	"bytes"
	"crypto/rand"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// chainFixture builds n signers with a shared directory.
type chainFixture struct {
	signers []Signer
	dir     MapDirectory
}

func newChainFixture(t testing.TB, n int) *chainFixture {
	t.Helper()
	scheme, err := ByName(SchemeEd25519)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	f := &chainFixture{dir: make(MapDirectory, n)}
	for i := 0; i < n; i++ {
		s, err := scheme.Generate(rand.Reader)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		f.signers = append(f.signers, s)
		f.dir[model.NodeID(i)] = s.Predicate()
	}
	return f
}

// buildChain signs value by node 0 and extends through nodes 1..k-1, each
// naming its predecessor, as the FD protocol does.
func (f *chainFixture) buildChain(t testing.TB, value []byte, k int) Chain {
	t.Helper()
	c, err := NewChain(value, f.signers[0])
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	for i := 1; i < k; i++ {
		c, err = c.Extend(model.NodeID(i-1), f.signers[i])
		if err != nil {
			t.Fatalf("Extend %d: %v", i, err)
		}
	}
	return c
}

// cloneChain deep-copies c through the wire encoding, so the copy has no
// nested-encoding cache and a signature forged in its bytes is re-encoded
// on the next use.
func cloneChain(t testing.TB, c Chain) Chain {
	t.Helper()
	out, err := UnmarshalChain(c.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalChain: %v", err)
	}
	return out
}

// nestedOf returns c's nested encoding, the byte string its next signer
// signs behind an assignee name.
func nestedOf(c Chain) []byte { return c.appendNested(nil, c.Len()) }

// sigsOf returns c's signatures, innermost first, aliasing its encoding.
func sigsOf(c Chain) [][]byte {
	var sigs [][]byte
	off := c.sigsAt(c.Len())
	for range c.Len() {
		var sg []byte
		sg, off = c.sigAt(off)
		sigs = append(sigs, sg)
	}
	return sigs
}

// forgeSig returns a copy of c, through the wire, whose layer-th
// signature has byte at xored with mask. c itself is untouched.
func forgeSig(t testing.TB, c Chain, layer, at int, mask byte) Chain {
	t.Helper()
	off := c.sigsAt(c.Len())
	for range layer {
		_, off = c.sigAt(off)
	}
	wire := bytes.Clone(c.Marshal())
	wire[off+4+at] ^= mask
	out, err := UnmarshalChain(wire)
	if err != nil {
		t.Fatalf("UnmarshalChain: %v", err)
	}
	return out
}

func TestChainVerifyHappyPath(t *testing.T) {
	f := newChainFixture(t, 5)
	value := []byte("agreement value")
	for k := 1; k <= 5; k++ {
		c := f.buildChain(t, value, k)
		if c.Len() != k {
			t.Fatalf("Len = %d, want %d", c.Len(), k)
		}
		sender := model.NodeID(k - 1)
		signers, err := c.Verify(sender, f.dir)
		if err != nil {
			t.Fatalf("Verify k=%d: %v", k, err)
		}
		for i, s := range signers {
			if s != model.NodeID(i) {
				t.Errorf("k=%d signer[%d] = %v, want %v", k, i, s, model.NodeID(i))
			}
		}
		if !bytes.Equal(c.Value(), value) {
			t.Errorf("Value = %q, want %q", c.Value(), value)
		}
	}
}

func TestChainMarshalRoundTrip(t *testing.T) {
	f := newChainFixture(t, 4)
	c := f.buildChain(t, []byte("wire"), 4)
	parsed, err := UnmarshalChain(c.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalChain: %v", err)
	}
	if _, err := parsed.Verify(3, f.dir); err != nil {
		t.Fatalf("Verify after round trip: %v", err)
	}
	if !bytes.Equal(parsed.Value(), []byte("wire")) {
		t.Errorf("Value = %q, want %q", parsed.Value(), "wire")
	}
	if got, want := parsed.Signers(3), c.Signers(3); !slices.Equal(got, want) {
		t.Errorf("Signers = %v, want %v", got, want)
	}
}

func TestChainVerifyWrongSender(t *testing.T) {
	f := newChainFixture(t, 4)
	c := f.buildChain(t, []byte("v"), 3)
	// The outer signature is node 2's; attributing it to node 3 (as N2
	// would if node 3 relayed the bytes unmodified) must fail.
	if _, err := c.Verify(3, f.dir); err == nil {
		t.Error("chain verified with wrong outer assignee")
	}
}

func TestChainVerifyTamperedValue(t *testing.T) {
	f := newChainFixture(t, 4)
	c := f.buildChain(t, []byte("honest"), 3)
	wire := bytes.Clone(c.Marshal())
	// Flip a byte inside the value region.
	idx := bytes.Index(wire, []byte("honest"))
	if idx < 0 {
		t.Fatal("value not found in wire image")
	}
	wire[idx] ^= 0x01
	parsed, err := UnmarshalChain(wire)
	if err != nil {
		t.Fatalf("UnmarshalChain: %v", err)
	}
	if _, err := parsed.Verify(2, f.dir); !errors.Is(err, ErrChainBadSignature) {
		t.Errorf("tampered value: err = %v, want ErrChainBadSignature", err)
	}
}

func TestChainVerifyTamperedInteriorSignature(t *testing.T) {
	f := newChainFixture(t, 4)
	// An interior forgery: the outermost signer is the attacker, so it
	// signs honestly over a corrupted interior. Only sub-message checking
	// (Fig. 2's mandate) catches the forged P_0 signature.
	inner, err := NewChain([]byte("v"), f.signers[0])
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	innerCp := forgeSig(t, inner, 0, 0, 0x01) // forged P_0 signature
	mid, err := innerCp.Extend(0, f.signers[1])
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	outer, err := mid.Extend(1, f.signers[2])
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if _, err := outer.Verify(2, f.dir); !errors.Is(err, ErrChainBadSignature) {
		t.Errorf("full verify: err = %v, want ErrChainBadSignature at layer 0", err)
	}
}

func TestChainVerifyUnknownSigner(t *testing.T) {
	f := newChainFixture(t, 4)
	c := f.buildChain(t, []byte("v"), 3)
	// Remove node 1's predicate from the verifier's directory.
	dir := make(MapDirectory)
	for k, v := range f.dir {
		if k != 1 {
			dir[k] = v
		}
	}
	if _, err := c.Verify(2, dir); !errors.Is(err, ErrChainUnknownSigner) {
		t.Errorf("err = %v, want ErrChainUnknownSigner", err)
	}
}

func TestChainWrongEmbeddedName(t *testing.T) {
	f := newChainFixture(t, 4)
	inner, err := NewChain([]byte("v"), f.signers[0])
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	// Node 1 extends but names node 3 instead of node 0: the name is
	// signed, so verification attributes layer 0 to node 3 and fails.
	c, err := inner.Extend(3, f.signers[1])
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	signers, err := c.Verify(1, f.dir)
	if err == nil {
		t.Errorf("wrong-name chain verified; signers=%v", signers)
	}
}

func TestChainExtendDoesNotMutateOriginal(t *testing.T) {
	f := newChainFixture(t, 3)
	c1 := f.buildChain(t, []byte("v"), 1)
	before := c1.Marshal()
	if _, err := c1.Extend(0, f.signers[1]); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if !bytes.Equal(before, c1.Marshal()) {
		t.Error("Extend mutated the receiver chain")
	}
}

func TestUnmarshalChainMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"garbage":      {1, 2, 3, 4, 5},
		"zero sigs":    NewEncoder().Bytes([]byte("v")).Int(0).Encoding(),
		"absurd count": NewEncoder().Bytes([]byte("v")).Int(1 << 20).Encoding(),
	}
	for name, data := range cases {
		if _, err := UnmarshalChain(data); err == nil {
			t.Errorf("%s: UnmarshalChain succeeded", name)
		}
	}
}

func TestUnmarshalChainNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		c, err := UnmarshalChain(data)
		if err == nil {
			dir := MapDirectory{}
			c.Verify(0, dir) // must not panic either
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChainSignersSequence(t *testing.T) {
	f := newChainFixture(t, 5)
	c := f.buildChain(t, []byte("v"), 4)
	got := c.Signers(3)
	want := []model.NodeID{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Signers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Signers[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestChainVerifyQuickRandomValues(t *testing.T) {
	f := newChainFixture(t, 3)
	prop := func(value []byte) bool {
		c, err := NewChain(value, f.signers[0])
		if err != nil {
			return false
		}
		c, err = c.Extend(0, f.signers[1])
		if err != nil {
			return false
		}
		signers, err := c.Verify(1, f.dir)
		if err != nil || len(signers) != 2 {
			return false
		}
		return bytes.Equal(c.Value(), value)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestUnmarshalChainCountBound: a structurally complete encoding parses
// up to 2¹⁶ signatures, and one more is refused as the reference decoder
// refuses it, whatever the bytes behind the count hold.
func TestUnmarshalChainCountBound(t *testing.T) {
	for _, k := range []int{1 << 16, 1<<16 + 1} {
		e := NewEncoder().Bytes([]byte("v")).Int(k)
		for range k - 1 {
			e.Int(0)
		}
		for range k {
			e.Bytes(nil)
		}
		c, err := UnmarshalChain(e.Encoding())
		_, refErr := refUnmarshalChain(e.Encoding())
		switch {
		case k <= 1<<16 && (err != nil || refErr != nil || c.Len() != k):
			t.Errorf("%d signatures: err = %v, reference err = %v", k, err, refErr)
		case k > 1<<16 && (!errors.Is(err, ErrChainEncoding) || !errors.Is(refErr, ErrChainEncoding)):
			t.Errorf("%d signatures: err = %v, reference err = %v; want ErrChainEncoding from both", k, err, refErr)
		}
	}
}

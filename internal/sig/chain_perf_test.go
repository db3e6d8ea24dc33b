package sig

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/model"
)

// Differential and allocation-regression tests for the cached
// nested-encoding fast paths. The slowXxx functions are the pre-cache
// reference implementations, kept verbatim as oracles: the optimized code
// must produce byte-identical encodings.

// slowEncodeNested is the original layer-by-layer nested encoding: a
// fresh encoder per layer, quadratic re-encoding. Oracle only.
func slowEncodeNested(c *Chain) []byte {
	enc := NewEncoder().Bytes(c.value).Bytes(c.sigs[0]).Encoding()
	for k := 1; k < len(c.sigs); k++ {
		enc = NewEncoder().
			Int(int(c.names[k-1])).
			Bytes(enc).
			Bytes(c.sigs[k]).
			Encoding()
	}
	return enc
}

// slowValuePayload / slowLinkPayload are the original encoder-built
// payloads. Oracles only.
func slowValuePayload(value []byte) []byte {
	return NewEncoder().String(tagChainValue).Bytes(value).Encoding()
}

func slowLinkPayload(assignee model.NodeID, nested []byte) []byte {
	return NewEncoder().String(tagChainLink).Int(int(assignee)).Bytes(nested).Encoding()
}

func TestNestedEncodingMatchesSlowOracle(t *testing.T) {
	f := newChainFixture(t, 6)
	for k := 1; k <= 6; k++ {
		c := f.buildChain(t, []byte("differential value"), k)

		// Cache filled at construction time (NewChain/Extend path).
		if got, want := c.nestedEncoding(), slowEncodeNested(c); !bytes.Equal(got, want) {
			t.Errorf("k=%d: cached nested encoding diverges from slow oracle", k)
		}

		// Cache filled lazily after a wire round-trip (computeNested path).
		parsed, err := UnmarshalChain(c.Marshal())
		if err != nil {
			t.Fatalf("UnmarshalChain: %v", err)
		}
		if parsed.nested != nil {
			t.Fatalf("k=%d: freshly parsed chain must not have a nested cache", k)
		}
		if got, want := parsed.nestedEncoding(), slowEncodeNested(parsed); !bytes.Equal(got, want) {
			t.Errorf("k=%d: lazily computed nested encoding diverges from slow oracle", k)
		}

		// Computed after a Verify, the relay's receive → verify → extend
		// order.
		reparsed, err := UnmarshalChain(c.Marshal())
		if err != nil {
			t.Fatalf("UnmarshalChain: %v", err)
		}
		if _, err := reparsed.Verify(model.NodeID(k-1), f.dir); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if got, want := reparsed.nestedEncoding(), slowEncodeNested(reparsed); !bytes.Equal(got, want) {
			t.Errorf("k=%d: nested encoding after Verify diverges from slow oracle", k)
		}
	}
}

func TestPayloadHelpersMatchSlowOracles(t *testing.T) {
	values := [][]byte{nil, {}, []byte("v"), bytes.Repeat([]byte{0xAB}, 300)}
	for _, v := range values {
		if got, want := appendValuePayload(nil, v), slowValuePayload(v); !bytes.Equal(got, want) {
			t.Errorf("appendValuePayload(%d bytes) diverges from oracle", len(v))
		}
		for _, who := range []model.NodeID{0, 1, 255, model.NoNode} {
			if got, want := appendLinkPayload(nil, who, v), slowLinkPayload(who, v); !bytes.Equal(got, want) {
				t.Errorf("appendLinkPayload(%v, %d bytes) diverges from oracle", who, len(v))
			}
		}
	}
}

func TestAppendHelpersMatchEncoder(t *testing.T) {
	var dst []byte
	dst = AppendBytes(dst, []byte("field"))
	dst = AppendString(dst, "str")
	dst = AppendUint64(dst, 1<<40)
	dst = AppendInt(dst, -7)
	want := NewEncoder().Bytes([]byte("field")).String("str").Uint64(1 << 40).Int(-7).Encoding()
	if !bytes.Equal(dst, want) {
		t.Error("append-style helpers diverge from Encoder methods")
	}
	size := BytesFieldSize(len("field")) + BytesFieldSize(len("str")) + 2*IntFieldSize
	if len(dst) != size {
		t.Errorf("field-size accounting: got %d bytes, sized %d", len(dst), size)
	}
}

func TestMarshalToMatchesMarshal(t *testing.T) {
	f := newChainFixture(t, 4)
	for k := 1; k <= 4; k++ {
		c := f.buildChain(t, []byte("wire"), k)
		flat := c.Marshal()
		if got := c.MarshalTo(nil); !bytes.Equal(got, flat) {
			t.Errorf("k=%d: MarshalTo diverges from Marshal", k)
		}
		if got := c.MarshalSize(); got != len(flat) {
			t.Errorf("k=%d: MarshalSize = %d, wire is %d bytes", k, got, len(flat))
		}
	}
}

// TestChainExtendAllocs pins the allocation budget of Extend: the
// signature itself, the four fresh chain slices, and pool slack. The old
// implementation re-encoded every layer (O(K) encoder allocations); any
// regression past this bound reintroduces that.
func TestChainExtendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	f := newChainFixture(t, 10)
	c := f.buildChain(t, []byte("alloc probe"), 9)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Extend(8, f.signers[9]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Chain.Extend allocates %.1f times per op, want <= 8", allocs)
	}
}

// TestChainVerifyAllocs pins the allocation budget of a warm Verify of a
// chain fresh off the wire, what every receiver does: the returned signers
// slice and nothing else. Each run verifies its own parsed chain, so an
// allocation Verify makes once per chain (it used to copy the nested
// encoding into every chain it accepted) counts every run; the old
// implementation's two encoders plus buffers per layer were ~70.
func TestChainVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	f := newChainFixture(t, 10)
	c := f.buildChain(t, []byte("alloc probe"), 10)
	// Prime the memo.
	if _, err := c.Verify(9, f.dir); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	wire := c.Marshal()
	parsed := make([]*Chain, runs+1) // AllocsPerRun adds a warm-up run
	for i := range parsed {
		var err error
		if parsed[i], err = UnmarshalChain(wire); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := parsed[next].Verify(9, f.dir); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 1 {
		t.Errorf("warm Chain.Verify of a wire chain allocates %.1f times per op, want <= 1", allocs)
	}
}

// TestUnmarshalChainAllocs pins the parse a receiver does per hop: the
// chain, its two spines and ONE copy of the encoding that the value and
// all signatures are sliced from — flat in the chain's length. A copy per
// signature (K+4 allocations at K hops) was a fifth of a sweep's
// allocated bytes.
func TestUnmarshalChainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	f := newChainFixture(t, 10)
	for _, hops := range []int{1, 10} {
		wire := f.buildChain(t, []byte("alloc probe"), hops).Marshal()
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := UnmarshalChain(wire); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("UnmarshalChain at %d hops allocates %.1f times per op, want <= 4", hops, allocs)
		}
	}
}

// TestUnmarshalChainOwnsItsBytes: the parsed chain shares nothing with
// the caller's buffer, and its fields cannot grow into one another.
func TestUnmarshalChainOwnsItsBytes(t *testing.T) {
	f := newChainFixture(t, 4)
	c := f.buildChain(t, []byte("wire"), 4)
	wire := c.Marshal()
	parsed, err := UnmarshalChain(wire)
	if err != nil {
		t.Fatalf("UnmarshalChain: %v", err)
	}
	for i := range wire {
		wire[i] ^= 0xff
	}
	_ = append(parsed.value, "overrun"...)
	for _, s := range parsed.sigs {
		_ = append(s, "overrun"...)
	}
	if !bytes.Equal(parsed.Marshal(), c.Marshal()) {
		t.Error("parsed chain changed when the input buffer or a field's spare capacity was written")
	}
	if _, err := parsed.Verify(3, f.dir); err != nil {
		t.Errorf("parsed chain no longer verifies: %v", err)
	}
}

// BenchmarkChainVerify measures full chain verification as a function
// of chain length (bytes grow linearly; verification cost with it). cold
// resets the verified-signature memo every iteration (the first
// receiver's cost: every layer pays a public-key verification); warm
// leaves it in place (every re-verification of a chain the process has
// already seen).
func BenchmarkChainVerify(b *testing.B) {
	for _, hops := range []int{1, 4, 8, 16} {
		for _, memo := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("hops=%d/%s", hops, memo), func(b *testing.B) {
				f := newChainFixture(b, hops)
				chain := f.buildChain(b, []byte("value"), hops)
				b.ReportMetric(float64(len(chain.Marshal())), "wire-bytes")
				b.ReportAllocs()
				b.ResetTimer()
				dir := memoDir{f.dir, new(VerifyMemo)}
				for i := 0; i < b.N; i++ {
					if memo == "cold" {
						b.StopTimer()
						dir.memo = new(VerifyMemo)
						b.StartTimer()
					}
					if _, err := chain.Verify(model.NodeID(hops-1), dir); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkChainExtend measures one chain extension (sign + derive the
// next nested encoding) at several chain lengths.
func BenchmarkChainExtend(b *testing.B) {
	for _, hops := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			f := newChainFixture(b, hops+1)
			chain := f.buildChain(b, []byte("value"), hops)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := chain.Extend(model.NodeID(hops-1), f.signers[hops]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestVerifyMemoSoundness checks the memo cannot be poisoned into
// accepting a forgery: a chain that failed under one predicate set still
// fails after an identical chain verified under the real predicates.
func TestVerifyMemoSoundness(t *testing.T) {
	memo := new(VerifyMemo)
	f := newChainFixture(t, 3)
	c := f.buildChain(t, []byte("memo"), 3)
	if _, err := c.Verify(2, memoDir{f.dir, memo}); err != nil {
		t.Fatalf("honest verify: %v", err)
	}
	// Same bytes, hostile directory: predicate identity differs, so the
	// memo must not vouch for it.
	other := newChainFixture(t, 3)
	if _, err := c.Verify(2, memoDir{other.dir, memo}); err == nil {
		t.Error("chain verified under an unrelated directory — memo leaked across predicates")
	}
	// Tampering after a successful verify must still be caught.
	parsed, err := UnmarshalChain(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	parsed.sigs[0][0] ^= 0x01
	if _, err := parsed.Verify(2, memoDir{f.dir, memo}); err == nil {
		t.Error("tampered chain verified — memo matched despite changed signature bytes")
	}
}

// TestVerifyMemoSchemeSeparation checks cross-scheme memo poisoning: a
// predicate of a DIFFERENT scheme built from the same raw key bytes
// (several schemes' Bytes() are unadorned key material) must not inherit
// memo entries earned under the original scheme.
func TestVerifyMemoSchemeSeparation(t *testing.T) {
	memo := new(VerifyMemo)
	f := newChainFixture(t, 2)
	c := f.buildChain(t, []byte("cross-scheme"), 2)
	if _, err := c.Verify(1, memoDir{f.dir, memo}); err != nil {
		t.Fatalf("honest verify: %v", err)
	}
	// Re-key the directory with HMAC predicates over the ed25519 public
	// key bytes. Test would reject every layer; only a memo keyed without
	// scheme separation could accept.
	hmacScheme, err := ByName(SchemeHMAC)
	if err != nil {
		t.Fatal(err)
	}
	dir := make(MapDirectory)
	for node, pred := range f.dir {
		alias, err := hmacScheme.ParsePredicate(pred.Bytes())
		if err != nil {
			t.Fatalf("parse ed25519 key bytes as hmac key: %v", err)
		}
		dir[node] = alias
	}
	if _, err := c.Verify(1, memoDir{dir, memo}); err == nil {
		t.Error("chain verified under same-key-bytes predicates of another scheme — memo lacks scheme separation")
	}
}

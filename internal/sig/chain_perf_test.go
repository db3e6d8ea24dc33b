package sig

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/model"
)

// Differential and allocation-regression tests for the cached
// nested-encoding fast paths. The slowXxx functions are the pre-cache
// reference implementations, kept verbatim as oracles: the optimized code
// must produce byte-identical encodings.

// slowEncodeNested is the original layer-by-layer nested encoding: a
// fresh encoder per layer, quadratic re-encoding. Oracle only.
func slowEncodeNested(c Chain) []byte {
	r := refOf(c)
	enc := NewEncoder().Bytes(r.value).Bytes(r.sigs[0]).Encoding()
	for k := 1; k < len(r.sigs); k++ {
		enc = NewEncoder().
			Int(int(r.names[k-1])).
			Bytes(enc).
			Bytes(r.sigs[k]).
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
		want := slowEncodeNested(c)
		if got := nestedOf(c); !bytes.Equal(got, want) {
			t.Errorf("k=%d: nested encoding diverges from slow oracle", k)
		}
		if got := c.nestedSize(k); got != len(want) {
			t.Errorf("k=%d: nestedSize = %d, oracle's encoding is %d bytes", k, got, len(want))
		}
		if got := refOf(c).nestedEncoding(); !bytes.Equal(got, want) {
			t.Errorf("k=%d: reference nested encoding diverges from slow oracle", k)
		}
		// Written behind other bytes, as Extend writes it behind the link
		// header.
		prefix := []byte("header")
		if got := c.appendNested(prefix, k); !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("k=%d: nested encoding appended to a prefix diverges", k)
		}

		// After a wire round-trip and a Verify, the relay's receive →
		// verify → extend order.
		parsed := cloneChain(t, c)
		if _, err := parsed.Verify(model.NodeID(k-1), f.dir); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if got := nestedOf(parsed); !bytes.Equal(got, want) {
			t.Errorf("k=%d: nested encoding of a parsed, verified chain diverges from slow oracle", k)
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

// TestChainExtendAllocs pins the allocation budget of Extend, as
// measured: the signature itself and the new chain's encoding. A chain
// header on the heap made 3; the spine-based chain made 6 (a value copy,
// two spines, a nested-encoding cache); the implementation before that
// re-encoded every layer (O(K) encoder allocations).
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
	if allocs > 2 {
		t.Errorf("Chain.Extend allocates %.1f times per op, want <= 2", allocs)
	}
}

// TestChainVerifyAllocs pins the allocation budget of a warm Verify of a
// chain fresh off the wire, what every receiver does: the returned signers
// slice and nothing else, and nothing at all from VerifyTo into a buffer
// the caller passes back. Each run verifies its own parsed chain, so an
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
	parsed := make([]Chain, 2*(runs+1)) // AllocsPerRun adds a warm-up run
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
	buf := make([]model.NodeID, 0, 10)
	allocs = testing.AllocsPerRun(runs, func() {
		var err error
		if buf, err = parsed[next].VerifyTo(buf[:0], 9, f.dir); err != nil || len(buf) != 10 {
			t.Fatal(err, buf)
		}
		next++
	})
	if allocs > 0 {
		t.Errorf("warm Chain.VerifyTo of a wire chain into a reused buffer allocates %.1f times per op, want 0", allocs)
	}
}

// TestUnmarshalChainAllocs pins the parse a receiver does per hop: ONE
// copy of the encoding, which is the chain (returned by value) — flat in
// the chain's length. A chain header on the heap made 2, two spines beside
// it 4; a copy per signature (K+4 allocations at K hops) was a fifth of a
// sweep's allocated bytes.
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
		if allocs > 1 {
			t.Errorf("UnmarshalChain at %d hops allocates %.1f times per op, want <= 1", hops, allocs)
		}
	}
}

// TestUnmarshalChainOwnsItsBytes: the parsed chain shares nothing with
// the caller's buffer, and neither its fields nor its encoding can be
// grown into one another.
func TestUnmarshalChainOwnsItsBytes(t *testing.T) {
	f := newChainFixture(t, 4)
	c := f.buildChain(t, []byte("wire"), 4)
	want := bytes.Clone(c.Marshal())
	wire := bytes.Clone(want)
	parsed, err := UnmarshalChain(wire)
	if err != nil {
		t.Fatalf("UnmarshalChain: %v", err)
	}
	for i := range wire {
		wire[i] ^= 0xff
	}
	_ = append(parsed.Value(), "overrun"...)
	for _, s := range sigsOf(parsed) {
		_ = append(s, "overrun"...)
	}
	_ = append(parsed.Marshal(), "overrun"...)
	if !bytes.Equal(parsed.Marshal(), want) {
		t.Error("parsed chain changed when the input buffer or a field's spare capacity was written")
	}
	if _, err := parsed.Verify(3, f.dir); err != nil {
		t.Errorf("parsed chain no longer verifies: %v", err)
	}
}

// TestLyingSignatureCountSizesNothing: a payload that claims more
// signatures than its bytes can hold is refused before anything is sized
// by the claim — a 13-byte payload claiming 65,536 signatures made each
// receiver allocate 2 MiB of spines before it failed.
func TestLyingSignatureCountSizesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes inflate under -race")
	}
	payload := NewEncoder().Bytes([]byte("v")).Int(1 << 16).Encoding()
	if len(payload) != 13 {
		t.Fatalf("payload is %d bytes, want 13", len(payload))
	}
	if _, err := UnmarshalChain(payload); !errors.Is(err, ErrChainEncoding) {
		t.Fatalf("lying count: err = %v, want ErrChainEncoding", err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if _, err := UnmarshalChain(payload); err == nil {
			t.Fatal("lying count parsed")
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if copyBytes := uint64(len(payload)); perCall > copyBytes+4*uint64(len(payload)) {
		t.Errorf("a 13-byte payload claiming 65,536 signatures allocates %d B, want at most %d", perCall, copyBytes+4*uint64(len(payload)))
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
	parsed := forgeSig(t, c, 0, 0, 0x01)
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

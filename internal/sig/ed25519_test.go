package sig

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
)

// Tests for the ed25519 signer's signing memory. The oracle throughout is
// ed25519.Sign on the same private key: Ed25519 is deterministic, so a
// remembered signature must equal a computed one byte for byte.

func newEd25519Signer(t testing.TB) *ed25519Signer {
	t.Helper()
	signer, err := ed25519Scheme{}.Generate(rand.Reader)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return signer.(*ed25519Signer)
}

// mustSign signs msg and fails the test unless the result is what
// ed25519.Sign computes.
func mustSign(t *testing.T, s *ed25519Signer, msg []byte, when string) []byte {
	t.Helper()
	got, err := s.Sign(msg)
	if err != nil {
		t.Fatalf("Sign (%s): %v", when, err)
	}
	if want := ed25519.Sign(s.priv, msg); !bytes.Equal(got, want) {
		t.Fatalf("Sign (%s) of %d bytes departs from ed25519.Sign", when, len(msg))
	}
	return got
}

func (s *ed25519Signer) remembers(msg []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remembered(sha256.Sum256(msg)) != nil
}

func TestEd25519SignMatchesReferenceOnEveryRequest(t *testing.T) {
	s := newEd25519Signer(t)
	rng := mrand.New(mrand.NewSource(22))
	for round := 0; round < 4; round++ {
		msg := make([]byte, rng.Intn(300))
		rng.Read(msg)
		first := mustSign(t, s, msg, "first")
		if s.remembers(msg) {
			t.Fatal("a statement signed once is remembered")
		}
		mustSign(t, s, msg, "second")
		if !s.remembers(msg) {
			t.Fatal("a statement signed twice in a row is not remembered")
		}
		third := mustSign(t, s, msg, "third")
		// The caller owns what Sign returns: scribbling over two results
		// must not reach the memory.
		for i := range first {
			first[i], third[i] = 0xff, 0xee
		}
		for i := 4; i <= 100; i++ {
			mustSign(t, s, msg, fmt.Sprintf("request %d", i))
		}
		// Push the statement out: signedLimit other statements, each asked
		// for twice, overwrite the oldest entries.
		for i := 0; i < signedLimit; i++ {
			other := []byte(fmt.Sprintf("round %d filler %d", round, i))
			mustSign(t, s, other, "filler")
			mustSign(t, s, other, "filler again")
		}
		if s.remembers(msg) {
			t.Fatalf("statement survived %d later admissions", signedLimit)
		}
		mustSign(t, s, msg, "after being overwritten")
	}
	// Per round: the statement is computed on its first and second request
	// and once more after being overwritten, every filler twice.
	requested, computed := SignCounts(s)
	if wantReq, wantComp := uint64(4*(101+2*signedLimit)), uint64(4*(3+2*signedLimit)); requested != wantReq || computed != wantComp {
		t.Errorf("counts: requested %d computed %d, want %d and %d", requested, computed, wantReq, wantComp)
	}
	hm, err := hmacScheme{}.Generate(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hm.Sign([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if r, c := SignCounts(hm); r != 0 || c != 0 {
		t.Errorf("SignCounts of a signer that keeps none = (%d, %d)", r, c)
	}
}

func TestEd25519SignMemoryIsBounded(t *testing.T) {
	s := newEd25519Signer(t)
	msg := make([]byte, 40)
	for i := 0; i < 10000; i++ {
		binary.BigEndian.PutUint64(msg, uint64(i))
		if _, err := s.Sign(msg); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.signed) != 0 {
		t.Errorf("10,000 distinct statements left %d remembered", len(s.signed))
	}
	if requested, computed := SignCounts(s); requested != 10000 || computed != 10000 {
		t.Errorf("distinct statements: requested %d computed %d, want 10000 of each", requested, computed)
	}
	for i := 0; i < 1000; i++ {
		binary.BigEndian.PutUint64(msg, uint64(1<<32+i))
		for rep := 0; rep < 3; rep++ {
			mustSign(t, s, msg, "repeat")
		}
	}
	if len(s.signed) > signedLimit || cap(s.signed) > signedLimit {
		t.Errorf("1,000 repeated statements left len %d cap %d, bound is %d", len(s.signed), cap(s.signed), signedLimit)
	}
}

var signSink []byte

// TestEd25519SignAllocs: a statement never seen costs what ed25519.Sign
// itself allocates and nothing more, a remembered one its 64-byte copy.
func TestEd25519SignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := newEd25519Signer(t)
	msg := make([]byte, 40)
	next := uint64(0)
	fresh := func() []byte {
		next++
		binary.BigEndian.PutUint64(msg, next)
		return msg
	}
	// The results go to a package variable so the reference's signature
	// escapes like a returned one does.
	reference := testing.AllocsPerRun(200, func() { signSink = ed25519.Sign(s.priv, fresh()) })
	if got := testing.AllocsPerRun(200, func() { signSink, _ = s.Sign(fresh()) }); got != reference {
		t.Errorf("Sign of a fresh statement allocates %.1f times, ed25519.Sign %.1f", got, reference)
	}
	repeated := []byte("the canonical proposal")
	s.Sign(repeated)
	s.Sign(repeated)
	if got := testing.AllocsPerRun(200, func() { signSink, _ = s.Sign(repeated) }); got != 1 {
		t.Errorf("Sign of a remembered statement allocates %.1f times, want 1", got)
	}
}

// TestEd25519SignConcurrent shares one signer between goroutines asking
// for overlapping statements, the way a sweep's workers share a cell's
// signers. Run under -race by the CI race step.
func TestEd25519SignConcurrent(t *testing.T) {
	s := newEd25519Signer(t)
	const goroutines, statements, requests = 8, 24, 400
	msgs := make([][]byte, statements)
	want := make([][]byte, statements)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("shared statement %d", i))
		want[i] = ed25519.Sign(s.priv, msgs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(g)))
			for r := 0; r < requests; r++ {
				i := rng.Intn(statements)
				got, err := s.Sign(msgs[i])
				if err != nil {
					t.Errorf("Sign: %v", err)
					return
				}
				if !bytes.Equal(got, want[i]) || !s.pred.Test(msgs[i], got) {
					t.Errorf("goroutine %d request %d: wrong signature for statement %d", g, r, i)
					return
				}
				got[0] ^= 0xff // ours to scribble on
			}
		}(g)
	}
	wg.Wait()
	requested, computed := SignCounts(s)
	if requested != goroutines*requests || computed >= requested {
		t.Errorf("requested %d computed %d; want %d requested and fewer computed", requested, computed, goroutines*requests)
	}
	if len(s.signed) > statements {
		t.Errorf("%d statements remembered for %d distinct ones: a statement was kept twice", len(s.signed), statements)
	}
}

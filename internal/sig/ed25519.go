package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sync"
)

// SchemeEd25519 is the name of the Ed25519 scheme. It is the default scheme
// throughout the repository: fast, small signatures, deterministic, and a
// faithful modern stand-in for the paper's DSA citation.
const SchemeEd25519 = "ed25519"

func init() { Register(ed25519Scheme{}) }

type ed25519Scheme struct{}

func (ed25519Scheme) Name() string { return SchemeEd25519 }

// cost is CostOf's price: a signature and a verification take
// about 40 µs and 105 µs on a 2-vCPU Xeon where one OM(t) entry
// ingest takes 37 ns.
func (ed25519Scheme) cost() Cost { return Cost{1000, 2800} }

func (ed25519Scheme) Generate(rand io.Reader) (Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("sig/ed25519: generate: %w", err)
	}
	return &ed25519Signer{priv: priv, pred: &ed25519Predicate{pub: pub}}, nil
}

func (ed25519Scheme) ParsePredicate(data []byte) (TestPredicate, error) {
	if len(data) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("%w: ed25519 key must be %d bytes, got %d",
			ErrBadKey, ed25519.PublicKeySize, len(data))
	}
	pub := make(ed25519.PublicKey, ed25519.PublicKeySize)
	copy(pub, data)
	return &ed25519Predicate{pub: pub}, nil
}

// The signing memory. S1 says only the holder of S_i can produce {m}_{S_i};
// nothing says it must produce it again, and Ed25519 is deterministic
// (RFC 8032), so handing back the signature computed last time is invisible
// in every byte. A sweep asks one established key set to sign the same
// canonical statements instance after instance; a signer that remembers
// them pays the curve arithmetic once.
//
// Admission is on second request, so traffic that never repeats (a fresh
// value per request) retains nothing: a statement signed once leaves only a
// 64-bit digest prefix in a ring of seenRing slots, and only a statement
// whose prefix is still in the ring when it is asked for again is kept with
// its signature, in a slice of at most signedLimit entries with the oldest
// overwritten. A prefix collision (or the all-zero prefix against an empty
// slot) admits a statement one request early and nothing else. Both sizes
// were chosen from the hit-share table in perf/PR-22.md.
const (
	seenRing    = 8
	signedLimit = 64
)

// signedStatement is one remembered signature, keyed by the SHA-256 of the
// statement it signs.
type signedStatement struct {
	digest [sha256.Size]byte
	sig    [ed25519.SignatureSize]byte
}

type ed25519Signer struct {
	priv ed25519.PrivateKey
	pred *ed25519Predicate

	// mu guards everything below. Established signers are shared by every
	// worker of a sweep.
	mu         sync.Mutex
	seen       [seenRing]uint64
	seenNext   int
	signed     []signedStatement
	signedNext int
	// requested counts Sign calls, computed the ones that reached
	// ed25519.Sign.
	requested, computed uint64
}

var _ Signer = (*ed25519Signer)(nil)

func (s *ed25519Signer) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	prefix := binary.LittleEndian.Uint64(digest[:])
	s.mu.Lock()
	s.requested++
	if st := s.remembered(digest); st != nil {
		// A fresh copy: callers own what Sign returns.
		out := append([]byte(nil), st.sig[:]...)
		s.mu.Unlock()
		return out, nil
	}
	s.computed++
	again := slices.Contains(s.seen[:], prefix)
	if !again {
		s.seen[s.seenNext] = prefix
		s.seenNext = (s.seenNext + 1) % seenRing
	}
	s.mu.Unlock()

	// The curve arithmetic runs outside the lock, so workers asking one
	// signer for different statements do not queue behind each other.
	sg := ed25519.Sign(s.priv, msg)
	if again {
		s.mu.Lock()
		// Two goroutines may have computed the same statement together;
		// the second finds it already kept.
		if s.remembered(digest) == nil {
			st := signedStatement{digest: digest, sig: [ed25519.SignatureSize]byte(sg)}
			if len(s.signed) < signedLimit {
				s.signed = append(s.signed, st)
			} else {
				s.signed[s.signedNext] = st
				s.signedNext = (s.signedNext + 1) % signedLimit
			}
		}
		s.mu.Unlock()
	}
	return sg, nil
}

// remembered returns the kept statement with this digest, if any. Callers
// hold s.mu.
func (s *ed25519Signer) remembered(digest [sha256.Size]byte) *signedStatement {
	for i := range s.signed {
		if s.signed[i].digest == digest {
			return &s.signed[i]
		}
	}
	return nil
}

// signCounts implements the optional interface SignCounts reads.
func (s *ed25519Signer) signCounts() (requested, computed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requested, s.computed
}

func (s *ed25519Signer) Predicate() TestPredicate { return s.pred }

type ed25519Predicate struct {
	pub ed25519.PublicKey
}

var _ TestPredicate = (*ed25519Predicate)(nil)

func (p *ed25519Predicate) Test(msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(p.pub, msg, sig)
}

func (p *ed25519Predicate) Bytes() []byte {
	out := make([]byte, len(p.pub))
	copy(out, p.pub)
	return out
}

func (p *ed25519Predicate) Fingerprint() string {
	sum := sha256.Sum256(p.pub)
	return SchemeEd25519 + ":" + hex.EncodeToString(sum[:8])
}

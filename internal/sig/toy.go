package sig

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// SchemeToy is the name of a deliberately simple deterministic scheme used
// by unit tests that need fast, reproducible keys and signatures.
//
// A toy signature of m under key k is SHA-256(k || m) and the "predicate"
// is SHA-256-derived from the key, with verification done by re-deriving.
// Like HMAC the key is recoverable from... it is NOT: the predicate stores
// only a key commitment, so verification requires the signature to carry
// the key alongside the MAC. That makes signatures trivially forgeable by
// anyone who has SEEN one (the key rides in every signature), which is a
// deliberate, documented violation of S3 used by adversarial tests that
// model signature-capability theft. Production code must use Ed25519.
const SchemeToy = "toy"

const toyKeySize = 16

func init() { Register(toyScheme{}) }

type toyScheme struct{}

func (toyScheme) Name() string { return SchemeToy }

// cost is CostOf's price: a signature and a verification take
// about 0.3 µs and 0.4 µs on a 2-vCPU Xeon where one OM(t) entry
// ingest takes 37 ns.
func (toyScheme) cost() Cost { return Cost{9, 10} }

func (toyScheme) Generate(rnd io.Reader) (Signer, error) {
	key := make([]byte, toyKeySize)
	if _, err := io.ReadFull(rnd, key); err != nil {
		return nil, fmt.Errorf("sig/toy: generate: %w", err)
	}
	commit := sha256.Sum256(key)
	pred := &toyPredicate{commit: commit[:]}
	return &toySigner{key: key, pred: pred}, nil
}

func (toyScheme) ParsePredicate(data []byte) (TestPredicate, error) {
	if len(data) != sha256.Size {
		return nil, fmt.Errorf("%w: toy commitment must be %d bytes, got %d",
			ErrBadKey, sha256.Size, len(data))
	}
	commit := make([]byte, sha256.Size)
	copy(commit, data)
	return &toyPredicate{commit: commit}, nil
}

type toySigner struct {
	key  []byte
	pred *toyPredicate
}

var _ Signer = (*toySigner)(nil)

func (s *toySigner) Sign(msg []byte) ([]byte, error) {
	mac := toyMAC(s.key, msg)
	// Signature = key || MAC. Carrying the key makes verification possible
	// against a commitment-only predicate, at the (intentional) cost of S3.
	out := make([]byte, 0, len(s.key)+len(mac))
	out = append(out, s.key...)
	out = append(out, mac...)
	return out, nil
}

func (s *toySigner) Predicate() TestPredicate { return s.pred }

// ExtractToyKey recovers the signing key from a toy signature. Adversarial
// tests use this to model an attacker that steals signing capability after
// observing traffic — the scenario S3 exists to preclude.
func ExtractToyKey(sig []byte) ([]byte, bool) {
	if len(sig) != toyKeySize+sha256.Size {
		return nil, false
	}
	key := make([]byte, toyKeySize)
	copy(key, sig[:toyKeySize])
	return key, true
}

// NewToySignerFromKey builds a toy signer around a raw key, for tests that
// exercise key theft and key sharing between faulty nodes.
func NewToySignerFromKey(key []byte) (Signer, error) {
	if len(key) != toyKeySize {
		return nil, fmt.Errorf("sig/toy: key must be %d bytes, got %d", toyKeySize, len(key))
	}
	k := make([]byte, toyKeySize)
	copy(k, key)
	commit := sha256.Sum256(k)
	return &toySigner{key: k, pred: &toyPredicate{commit: commit[:]}}, nil
}

func toyMAC(key, msg []byte) []byte {
	h := sha256.New()
	h.Write(key)
	h.Write(msg)
	return h.Sum(nil)
}

type toyPredicate struct {
	commit []byte
}

var _ TestPredicate = (*toyPredicate)(nil)

func (p *toyPredicate) Test(msg, sig []byte) bool {
	if len(sig) != toyKeySize+sha256.Size {
		return false
	}
	key := sig[:toyKeySize]
	mac := sig[toyKeySize:]
	commit := sha256.Sum256(key)
	if !bytes.Equal(commit[:], p.commit) {
		return false
	}
	return bytes.Equal(toyMAC(key, msg), mac)
}

func (p *toyPredicate) Bytes() []byte {
	out := make([]byte, len(p.commit))
	copy(out, p.commit)
	return out
}

func (p *toyPredicate) Fingerprint() string {
	return SchemeToy + ":" + hex.EncodeToString(p.commit[:8])
}

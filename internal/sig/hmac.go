package sig

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// SchemeHMAC is the name of the HMAC-SHA256 pseudo-signature scheme.
//
// CAVEAT: HMAC is symmetric, so the "test predicate" necessarily contains
// the signing key — property S3 does NOT hold: anyone holding the predicate
// can forge signatures. The scheme exists solely to isolate protocol
// overhead from public-key cryptography cost in benchmarks (experiment
// E10). It must never be used where the adversary model matters; the
// adversary tests use real schemes.
const SchemeHMAC = "hmac-sha256"

// hmacKeySize is the symmetric key length in bytes.
const hmacKeySize = 32

func init() { Register(hmacScheme{}) }

type hmacScheme struct{}

func (hmacScheme) Name() string { return SchemeHMAC }

// cost is CostOf's price: a signature and a verification take
// about 0.7 µs and 0.6 µs on a 2-vCPU Xeon where one OM(t) entry
// ingest takes 37 ns.
func (hmacScheme) cost() Cost { return Cost{18, 17} }

func (hmacScheme) Generate(rnd io.Reader) (Signer, error) {
	key := make([]byte, hmacKeySize)
	if _, err := io.ReadFull(rnd, key); err != nil {
		return nil, fmt.Errorf("sig/hmac: generate: %w", err)
	}
	pred := &hmacPredicate{key: key}
	return &hmacSigner{pred: pred}, nil
}

func (hmacScheme) ParsePredicate(data []byte) (TestPredicate, error) {
	if len(data) != hmacKeySize {
		return nil, fmt.Errorf("%w: hmac key must be %d bytes, got %d",
			ErrBadKey, hmacKeySize, len(data))
	}
	key := make([]byte, hmacKeySize)
	copy(key, data)
	return &hmacPredicate{key: key}, nil
}

type hmacSigner struct {
	pred *hmacPredicate
}

var _ Signer = (*hmacSigner)(nil)

func (s *hmacSigner) Sign(msg []byte) ([]byte, error) {
	mac := s.pred.mac(msg)
	return mac[:], nil
}

func (s *hmacSigner) Predicate() TestPredicate { return s.pred }

type hmacPredicate struct {
	key []byte
}

var _ TestPredicate = (*hmacPredicate)(nil)

// mac computes HMAC-SHA256(key, msg) as RFC 2104 defines it,
// H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ msg)) with K the key zero-padded to a
// block (hashed first if longer), without hmac.New's per-call state: the
// inner digest is one SHA-256 over the ipad-keyed message in a pooled
// encoder buffer, the outer one over a stack array. It runs as many
// compression-function blocks as crypto/hmac does and retains nothing.
func (p *hmacPredicate) mac(msg []byte) [sha256.Size]byte {
	var k [sha256.BlockSize]byte
	if len(p.key) > sha256.BlockSize {
		sum := sha256.Sum256(p.key)
		copy(k[:], sum[:])
	} else {
		copy(k[:], p.key)
	}
	e := GetEncoder()
	e.Grow(sha256.BlockSize + len(msg))
	for _, b := range k {
		e.buf = append(e.buf, b^0x36)
	}
	inner := sha256.Sum256(append(e.buf, msg...))
	e.Release()
	var outer [sha256.BlockSize + sha256.Size]byte
	for i, b := range k {
		outer[i] = b ^ 0x5c
	}
	copy(outer[sha256.BlockSize:], inner[:])
	return sha256.Sum256(outer[:])
}

func (p *hmacPredicate) Test(msg, sig []byte) bool {
	mac := p.mac(msg)
	return hmac.Equal(mac[:], sig)
}

func (p *hmacPredicate) Bytes() []byte {
	out := make([]byte, len(p.key))
	copy(out, p.key)
	return out
}

func (p *hmacPredicate) Fingerprint() string {
	sum := sha256.Sum256(p.key)
	return SchemeHMAC + ":" + hex.EncodeToString(sum[:8])
}

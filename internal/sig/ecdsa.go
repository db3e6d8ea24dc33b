package sig

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
)

// SchemeECDSA is the name of the ECDSA P-256 scheme. ECDSA is the direct
// successor of DSA, which the paper cites as an example scheme satisfying
// S1–S3; classic DSA is no longer exposed for signing by the Go stdlib.
const SchemeECDSA = "ecdsa-p256"

func init() { Register(ecdsaScheme{}) }

type ecdsaScheme struct{}

func (ecdsaScheme) Name() string { return SchemeECDSA }

// cost is CostOf's price: a signature and a verification take
// about 60 µs and 130 µs on a 2-vCPU Xeon where one OM(t) entry
// ingest takes 37 ns.
func (ecdsaScheme) cost() Cost { return Cost{1600, 3500} }

func (ecdsaScheme) Generate(rnd io.Reader) (Signer, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), keyStream{rnd})
	if err != nil {
		return nil, fmt.Errorf("sig/ecdsa: generate: %w", err)
	}
	return &ecdsaSigner{priv: priv, pred: &ecdsaPredicate{pub: &priv.PublicKey}}, nil
}

// keyStream makes a key a pure function of its stream: the standard
// library's ECDSA and RSA generators also make one-byte reads, each with
// probability ½ (randutil.MaybeReadByte), which it answers unconsumed.
type keyStream struct{ io.Reader }

func (r keyStream) Read(p []byte) (int, error) {
	if len(p) == 1 {
		return 1, nil // the byte is discarded
	}
	return r.Reader.Read(p)
}

func (ecdsaScheme) ParsePredicate(data []byte) (TestPredicate, error) {
	pub, err := x509.ParsePKIXPublicKey(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	ecPub, ok := pub.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: not an ECDSA key (%T)", ErrBadKey, pub)
	}
	return &ecdsaPredicate{pub: ecPub}, nil
}

type ecdsaSigner struct {
	priv *ecdsa.PrivateKey
	pred *ecdsaPredicate
}

var _ Signer = (*ecdsaSigner)(nil)

// ecdsaSize is a signature's fixed length, r‖s; DER's varies with the nonce.
const ecdsaSize = 64

func (s *ecdsaSigner) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	r, ss, err := ecdsa.Sign(rand.Reader, s.priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sig/ecdsa: sign: %w", err)
	}
	out := make([]byte, ecdsaSize)
	r.FillBytes(out[:ecdsaSize/2])
	ss.FillBytes(out[ecdsaSize/2:])
	return out, nil
}

func (s *ecdsaSigner) Predicate() TestPredicate { return s.pred }

type ecdsaPredicate struct {
	pub *ecdsa.PublicKey
}

var _ TestPredicate = (*ecdsaPredicate)(nil)

func (p *ecdsaPredicate) Test(msg, sig []byte) bool {
	if len(sig) != ecdsaSize {
		return false
	}
	digest := sha256.Sum256(msg)
	half := ecdsaSize / 2
	return ecdsa.Verify(p.pub, digest[:], new(big.Int).SetBytes(sig[:half]), new(big.Int).SetBytes(sig[half:]))
}

func (p *ecdsaPredicate) Bytes() []byte {
	// MarshalPKIXPublicKey cannot fail for a well-formed P-256 key.
	out, err := x509.MarshalPKIXPublicKey(p.pub)
	if err != nil {
		panic(fmt.Sprintf("sig/ecdsa: marshal public key: %v", err))
	}
	return out
}

func (p *ecdsaPredicate) Fingerprint() string {
	sum := sha256.Sum256(p.Bytes())
	return SchemeECDSA + ":" + hex.EncodeToString(sum[:8])
}

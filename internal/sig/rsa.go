package sig

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"io"
)

// SchemeRSA is the name of the RSA-2048 PKCS#1 v1.5 scheme, retained for
// fidelity to the paper's RSA citation [6]. Key generation is slow; prefer
// Ed25519 outside of the E10 scheme-comparison experiment.
const SchemeRSA = "rsa-2048"

// rsaBits is the modulus size. 2048 is the smallest size considered secure
// today; the 1995 paper predates any such guidance.
const rsaBits = 2048

func init() { Register(rsaScheme{}) }

type rsaScheme struct{}

func (rsaScheme) Name() string { return SchemeRSA }

// cost is CostOf's price: a signature and a verification take
// about 1.2 ms and 55 µs on a 2-vCPU Xeon where one OM(t) entry
// ingest takes 37 ns.
func (rsaScheme) cost() Cost { return Cost{33000, 1500} }

func (rsaScheme) Generate(rnd io.Reader) (Signer, error) {
	priv, err := rsa.GenerateKey(keyStream{rnd}, rsaBits)
	if err != nil {
		return nil, fmt.Errorf("sig/rsa: generate: %w", err)
	}
	return &rsaSigner{priv: priv, pred: &rsaPredicate{pub: &priv.PublicKey}}, nil
}

func (rsaScheme) ParsePredicate(data []byte) (TestPredicate, error) {
	pub, err := x509.ParsePKIXPublicKey(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	rsaPub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: not an RSA key (%T)", ErrBadKey, pub)
	}
	return &rsaPredicate{pub: rsaPub}, nil
}

type rsaSigner struct {
	priv *rsa.PrivateKey
	pred *rsaPredicate
}

var _ Signer = (*rsaSigner)(nil)

func (s *rsaSigner) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	sig, err := rsa.SignPKCS1v15(rand.Reader, s.priv, crypto.SHA256, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sig/rsa: sign: %w", err)
	}
	return sig, nil
}

func (s *rsaSigner) Predicate() TestPredicate { return s.pred }

type rsaPredicate struct {
	pub *rsa.PublicKey
}

var _ TestPredicate = (*rsaPredicate)(nil)

func (p *rsaPredicate) Test(msg, sig []byte) bool {
	digest := sha256.Sum256(msg)
	return rsa.VerifyPKCS1v15(p.pub, crypto.SHA256, digest[:], sig) == nil
}

func (p *rsaPredicate) Bytes() []byte {
	out, err := x509.MarshalPKIXPublicKey(p.pub)
	if err != nil {
		panic(fmt.Sprintf("sig/rsa: marshal public key: %v", err))
	}
	return out
}

func (p *rsaPredicate) Fingerprint() string {
	sum := sha256.Sum256(p.Bytes())
	return SchemeRSA + ":" + hex.EncodeToString(sum[:8])
}

package sig

import (
	"bytes"
	"crypto/rand"
	mrand "math/rand"
	"testing"
)

// fastSchemes are the schemes cheap enough to exercise in every test.
func fastSchemes(t *testing.T) []Scheme {
	t.Helper()
	var out []Scheme
	for _, name := range []string{SchemeEd25519, SchemeECDSA, SchemeHMAC, SchemeToy} {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		out = append(out, s)
	}
	return out
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := map[string]bool{
		SchemeEd25519: true, SchemeECDSA: true, SchemeRSA: true,
		SchemeHMAC: true, SchemeToy: true,
	}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing registered schemes: %v", want)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such-scheme"); err == nil {
		t.Error("ByName on unknown scheme succeeded")
	}
}

func TestSignVerifyAllSchemes(t *testing.T) {
	msg := []byte("the byzantine generals problem")
	for _, scheme := range fastSchemes(t) {
		t.Run(scheme.Name(), func(t *testing.T) {
			signer, err := scheme.Generate(rand.Reader)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			sig, err := signer.Sign(msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			pred := signer.Predicate()
			if !pred.Test(msg, sig) {
				t.Error("valid signature rejected (S2)")
			}
			if pred.Test([]byte("another message"), sig) {
				t.Error("signature accepted for wrong message")
			}
			// Tampered signature must fail.
			bad := append([]byte(nil), sig...)
			bad[0] ^= 0x01
			if pred.Test(msg, bad) {
				t.Error("tampered signature accepted")
			}
			// Empty/garbage signatures must fail, not panic.
			if pred.Test(msg, nil) {
				t.Error("nil signature accepted")
			}
			if pred.Test(msg, []byte{1, 2, 3}) {
				t.Error("garbage signature accepted")
			}
		})
	}
}

func TestPredicateRoundTrip(t *testing.T) {
	msg := []byte("round trip")
	for _, scheme := range fastSchemes(t) {
		t.Run(scheme.Name(), func(t *testing.T) {
			signer, err := scheme.Generate(rand.Reader)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			sig, err := signer.Sign(msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			wire := signer.Predicate().Bytes()
			parsed, err := scheme.ParsePredicate(wire)
			if err != nil {
				t.Fatalf("ParsePredicate: %v", err)
			}
			if !parsed.Test(msg, sig) {
				t.Error("re-parsed predicate rejected valid signature")
			}
			if parsed.Fingerprint() != signer.Predicate().Fingerprint() {
				t.Error("fingerprint changed across round trip")
			}
		})
	}
}

func TestParsePredicateMalformed(t *testing.T) {
	for _, scheme := range fastSchemes(t) {
		t.Run(scheme.Name(), func(t *testing.T) {
			for _, data := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{7}, 5)} {
				if _, err := scheme.ParsePredicate(data); err == nil {
					t.Errorf("ParsePredicate(%d bytes) succeeded", len(data))
				}
			}
		})
	}
}

func TestTwoKeysDistinct(t *testing.T) {
	// Distinct key pairs must not cross-verify (the ⇔ in S2).
	for _, scheme := range fastSchemes(t) {
		t.Run(scheme.Name(), func(t *testing.T) {
			s1, err := scheme.Generate(rand.Reader)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			s2, err := scheme.Generate(rand.Reader)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			msg := []byte("cross check")
			sig1, err := s1.Sign(msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if s2.Predicate().Test(msg, sig1) {
				t.Error("signature verified under a different key's predicate")
			}
		})
	}
}

// TestGenerateIsSeedPure: a key pair is a pure function of its stream,
// which the seeded key domain (core.KeyRand) and every setup attack that
// names another node's key rely on. The standard library's ECDSA and RSA
// generators read an extra byte with probability ½ per draw; repeated
// draws from one seed would expose a leak almost surely.
func TestGenerateIsSeedPure(t *testing.T) {
	schemes := fastSchemes(t)
	if !testing.Short() {
		rsaScheme, err := ByName(SchemeRSA)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, rsaScheme)
	}
	for _, scheme := range schemes {
		t.Run(scheme.Name(), func(t *testing.T) {
			tries := 8
			if scheme.Name() == SchemeRSA {
				tries = 3 // each prime search flips many coins
			}
			var want []byte
			for i := 0; i < tries; i++ {
				s, err := scheme.Generate(mrand.New(mrand.NewSource(49)))
				if err != nil {
					t.Fatalf("Generate: %v", err)
				}
				if got := s.Predicate().Bytes(); want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("draw %d from the same seed gave a different key", i)
				}
			}
		})
	}
}

func TestRSASignVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA key generation is slow")
	}
	scheme, err := ByName(SchemeRSA)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	signer, err := scheme.Generate(rand.Reader)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	msg := []byte("rsa message")
	sg, err := signer.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if !signer.Predicate().Test(msg, sg) {
		t.Error("valid RSA signature rejected")
	}
	wire := signer.Predicate().Bytes()
	parsed, err := scheme.ParsePredicate(wire)
	if err != nil {
		t.Fatalf("ParsePredicate: %v", err)
	}
	if !parsed.Test(msg, sg) {
		t.Error("re-parsed RSA predicate rejected valid signature")
	}
}

func TestToyKeyExtraction(t *testing.T) {
	// The toy scheme deliberately violates S3: the key rides in the
	// signature. This test pins that property (adversarial tests rely on
	// it) and shows the stolen key signs successfully.
	scheme, err := ByName(SchemeToy)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	signer, err := scheme.Generate(rand.Reader)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sg, err := signer.Sign([]byte("observed traffic"))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	key, ok := ExtractToyKey(sg)
	if !ok {
		t.Fatal("ExtractToyKey failed")
	}
	thief, err := NewToySignerFromKey(key)
	if err != nil {
		t.Fatalf("NewToySignerFromKey: %v", err)
	}
	forged, err := thief.Sign([]byte("forged statement"))
	if err != nil {
		t.Fatalf("thief.Sign: %v", err)
	}
	if !signer.Predicate().Test([]byte("forged statement"), forged) {
		t.Error("stolen toy key failed to forge — S3 violation property lost")
	}
}

func TestHMACSymmetryCaveat(t *testing.T) {
	// The HMAC scheme's documented S3 violation: the predicate holder can
	// forge. Pin it so nobody mistakes the scheme for a secure one.
	scheme, err := ByName(SchemeHMAC)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	signer, err := scheme.Generate(rand.Reader)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	pred, err := scheme.ParsePredicate(signer.Predicate().Bytes())
	if err != nil {
		t.Fatalf("ParsePredicate: %v", err)
	}
	forgerSigner, err := ByNameGenerateFromHMACKey(pred.Bytes())
	if err != nil {
		t.Fatalf("forge setup: %v", err)
	}
	forged, err := forgerSigner.Sign([]byte("forged"))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if !signer.Predicate().Test([]byte("forged"), forged) {
		t.Error("HMAC predicate holder could not forge — symmetry property lost")
	}
}

// ByNameGenerateFromHMACKey rebuilds an HMAC signer from predicate bytes,
// exercising the documented symmetry of the scheme.
func ByNameGenerateFromHMACKey(key []byte) (Signer, error) {
	pred := &hmacPredicate{key: append([]byte(nil), key...)}
	return &hmacSigner{pred: pred}, nil
}

// TestECDSASignatureIsFixedWidth: an ECDSA signature is r‖s in 64 bytes
// whatever its nonce, and any other length — a truncated or padded
// signature, DER's variable encoding — fails Test.
func TestECDSASignatureIsFixedWidth(t *testing.T) {
	scheme, err := ByName(SchemeECDSA)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := scheme.Generate(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pred := signer.Predicate()
	for i := 0; i < 32; i++ {
		msg := []byte{byte(i), 'm'}
		sg, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(sg) != 64 {
			t.Fatalf("signature %d is %d bytes, want 64", i, len(sg))
		}
		if !pred.Test(msg, sg) {
			t.Fatalf("signature %d does not verify", i)
		}
		if pred.Test(msg, sg[:63]) || pred.Test(msg, append(sg[:64:64], 0)) {
			t.Fatalf("signature %d verifies at another length", i)
		}
	}
}

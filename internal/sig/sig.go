// Package sig provides the digital-signature abstraction the paper's model
// of computation assumes (Borcherding 1995, §2):
//
//	S1: a node can produce {m}_S if and only if it knows the secret key S
//	    and the message m;
//	S2: for each secret key S_i there is a public test predicate T_i with
//	    T_i({m}_S) = true ⇔ S = S_i;
//	S3: S_i cannot be extracted from signed messages or from T_i.
//
// The paper cites DSA and RSA as schemes that satisfy S1–S3 with
// sufficiently high probability. This package offers several stdlib-backed
// schemes (Ed25519, ECDSA P-256, RSA-2048) plus two schemes for testing and
// benchmarking (an HMAC scheme that trades S3 for speed, clearly marked,
// and a deterministic toy scheme for fast unit tests).
//
// A public key is exchanged on the wire as raw bytes; TestPredicate is the
// parsed, verification-capable form — the paper's T_i "cast into a test
// predicate which checks whether a message was signed with the
// corresponding secret key".
package sig

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Common errors returned by schemes.
var (
	// ErrBadKey reports a malformed or unparsable public key encoding.
	ErrBadKey = errors.New("sig: malformed public key")
	// ErrUnknownScheme reports a lookup of an unregistered scheme name.
	ErrUnknownScheme = errors.New("sig: unknown scheme")
)

// TestPredicate is the paper's T_i: a public verifier for one node's
// signatures. Implementations must be safe for concurrent use.
type TestPredicate interface {
	// Test reports whether sig is a valid signature on msg under this
	// predicate's secret key (S2). It must return false, never panic, on
	// arbitrary inputs.
	Test(msg, sig []byte) bool
	// Bytes returns the canonical wire encoding of the predicate, suitable
	// for broadcast during key distribution and for re-parsing with
	// Scheme.ParsePredicate.
	Bytes() []byte
	// Fingerprint returns a short stable identifier of the predicate for
	// logging and map keys. Equal predicates have equal fingerprints.
	Fingerprint() string
}

// Signer holds a secret key S_i and produces signatures (S1). A Signer is
// deliberately separable from its owner: the paper's fault model allows a
// faulty node to hand its Signer to an accomplice, and the adversary
// package exercises exactly that.
type Signer interface {
	// Sign produces {m}_S. Implementations may randomize; the returned
	// signature must satisfy the paired predicate's Test, and the caller
	// owns the returned slice. A deterministic scheme may hand back a copy
	// of the signature it computed for the same message before (S1 limits
	// who can produce {m}_S, not how often it is computed); a randomized
	// one must not, or two requests would stop being independent draws.
	// Implementations must be safe for concurrent use: established
	// signers are shared by every worker of a sweep.
	Sign(msg []byte) ([]byte, error)
	// Predicate returns the test predicate paired with this secret key.
	Predicate() TestPredicate
}

// SignCounts returns how many signatures s has been asked for and how many
// of those it computed, for a signer that remembers what it signed; both
// are zero for one that computes every request.
func SignCounts(s Signer) (requested, computed uint64) {
	if c, ok := s.(interface{ signCounts() (uint64, uint64) }); ok {
		return c.signCounts()
	}
	return 0, 0
}

// Scheme generates key pairs and parses wire-encoded predicates. Scheme
// implementations must be safe for concurrent use.
type Scheme interface {
	// Name returns the registry name of the scheme (e.g. "ed25519").
	Name() string
	// Generate creates a fresh key pair using entropy from rand.
	Generate(rand io.Reader) (Signer, error)
	// ParsePredicate decodes a predicate previously produced by
	// TestPredicate.Bytes. It returns ErrBadKey (possibly wrapped) on
	// malformed input.
	ParsePredicate(data []byte) (TestPredicate, error)
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Scheme)
)

// Register makes a scheme available to ByName. It panics on duplicate
// names, which indicates a programmer error at init time.
func Register(s Scheme) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name()]; dup {
		panic(fmt.Sprintf("sig: duplicate scheme registration %q", s.Name()))
	}
	registry[s.Name()] = s
}

// ByName returns the registered scheme with the given name.
func ByName(name string) (Scheme, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, name)
	}
	return s, nil
}

// Names returns the sorted names of all registered schemes.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

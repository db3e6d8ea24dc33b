package main

import (
	"io"
	"sync/atomic"

	"repro/internal/sig"
)

// Counting signature schemes. The traced runs ask for "<scheme>+count",
// a wrapper registered through sig.Register that forwards to the real
// scheme and counts Sign calls and predicate Tests (a Test is a real
// verification: verify-memo hits never reach the predicate). Keys,
// signatures, fingerprints and wire bytes are the inner scheme's.

var (
	signCalls atomic.Int64
	testCalls atomic.Int64
)

const countSuffix = "+count"

// counted maps a scheme name to its counting wrapper's name.
func counted(name string) string { return name + countSuffix }

// plain is the identity rename, for runs with recording off.
func plain(name string) string { return name }

func init() {
	for _, name := range churnSchemes {
		inner, err := sig.ByName(name)
		if err != nil {
			panic(err)
		}
		sig.Register(countingScheme{inner})
	}
}

type countingScheme struct{ inner sig.Scheme }

func (s countingScheme) Name() string { return counted(s.inner.Name()) }

func (s countingScheme) Generate(rand io.Reader) (sig.Signer, error) {
	signer, err := s.inner.Generate(rand)
	if err != nil {
		return nil, err
	}
	return &countingSigner{inner: signer, pred: &countingPredicate{signer.Predicate()}}, nil
}

func (s countingScheme) ParsePredicate(data []byte) (sig.TestPredicate, error) {
	pred, err := s.inner.ParsePredicate(data)
	if err != nil {
		return nil, err
	}
	return &countingPredicate{pred}, nil
}

type countingSigner struct {
	inner sig.Signer
	pred  *countingPredicate
}

func (s *countingSigner) Sign(msg []byte) ([]byte, error) {
	signCalls.Add(1)
	return s.inner.Sign(msg)
}

func (s *countingSigner) Predicate() sig.TestPredicate { return s.pred }

type countingPredicate struct{ sig.TestPredicate }

func (p *countingPredicate) Test(msg, sg []byte) bool {
	testCalls.Add(1)
	return p.TestPredicate.Test(msg, sg)
}

package experiments

import (
	"crypto/rand"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sig"
)

// E10Schemes compares real signature schemes: sign/verify microcosts and
// the wall-clock time of a full key-distribution + FD-run cycle. The
// paper names DSA and RSA as suitable schemes; this table shows what the
// choice costs on modern primitives.
//
// RSA is skipped unless includeRSA is set: 2048-bit key generation takes
// seconds per node and dominates everything else (which is itself a
// finding — the paper's RSA suggestion makes key distribution expensive
// in wall-clock terms, not message terms).
func E10Schemes(includeRSA bool) *metrics.Table {
	tbl := metrics.NewTable(
		"E10 — Signature scheme cost (paper §2 cites DSA/RSA as example schemes)",
		"scheme", "sign µs", "verify µs", "sig bytes", "pred bytes", "keydist+1 FD run (n=8) ms")
	names := []string{sig.SchemeEd25519, sig.SchemeECDSA, sig.SchemeHMAC}
	if includeRSA {
		names = append(names, sig.SchemeRSA)
	}
	msg := []byte("benchmark message for scheme comparison")
	for _, name := range names {
		scheme, err := sig.ByName(name)
		if err != nil {
			panic(err)
		}
		signer, err := scheme.Generate(rand.Reader)
		if err != nil {
			panic(err)
		}
		const reps = 200
		start := time.Now()
		var sg []byte
		for i := 0; i < reps; i++ {
			sg, err = signer.Sign(msg)
			if err != nil {
				panic(err)
			}
		}
		signUS := float64(time.Since(start).Microseconds()) / reps
		pred := signer.Predicate()
		start = time.Now()
		for i := 0; i < reps; i++ {
			if !pred.Test(msg, sg) {
				panic("verify failed")
			}
		}
		verifyUS := float64(time.Since(start).Microseconds()) / reps

		start = time.Now()
		c, err := core.New(model.Config{N: 8, T: 2}, core.WithScheme(name))
		if err != nil {
			panic(err)
		}
		if _, err := c.EstablishAuthentication(); err != nil {
			panic(err)
		}
		if _, err := c.RunFailureDiscovery([]byte("v")); err != nil {
			panic(err)
		}
		cycleMS := float64(time.Since(start).Microseconds()) / 1000

		tbl.AddRow(name, signUS, verifyUS, len(sg), len(pred.Bytes()), cycleMS)
	}
	return tbl
}

// All runs every experiment at report scale and returns the tables in
// index order. quick trims the Monte-Carlo counts for fast test runs.
func All(quick bool) []*metrics.Table {
	runs := 100
	sizes := DefaultSizes
	if quick {
		runs = 5
		sizes = []int{4, 8, 16}
	}
	return []*metrics.Table{
		E1KeyDistribution(sizes),
		E2AuthenticatedFD(sizes),
		E3NonAuthFD(sizes),
		E4Amortization([]int{16, 32, 64}, []int{1, 5, 10, 20, 50}),
		E4Measured(8, 2, 15),
		E5Theorem2(runs),
		E6E7Properties(runs),
		E8Baselines(),
		RoundsTable(),
		E9SmallRange(),
		E10Schemes(false),
		E10Bytes(),
		E11LocalAuthBA(runs),
		E12VectorFD(sizes),
		E13AdversaryGrid(runs / 20),
	}
}

// ByID returns the tables for one experiment ID ("E1".."E13"), matching
// the index in the package comment.
func ByID(id string, quick bool) ([]*metrics.Table, error) {
	runs := 200
	sizes := DefaultSizes
	if quick {
		runs = 10
		sizes = []int{4, 8, 16}
	}
	switch id {
	case "E1":
		return []*metrics.Table{E1KeyDistribution(sizes)}, nil
	case "E2":
		return []*metrics.Table{E2AuthenticatedFD(sizes)}, nil
	case "E3":
		return []*metrics.Table{E3NonAuthFD(sizes)}, nil
	case "E4":
		return []*metrics.Table{E4Amortization([]int{16, 32, 64}, []int{1, 5, 10, 20, 50}), E4Measured(8, 2, 15)}, nil
	case "E5":
		return []*metrics.Table{E5Theorem2(runs)}, nil
	case "E6", "E7":
		return []*metrics.Table{E6E7Properties(runs)}, nil
	case "E8":
		return []*metrics.Table{E8Baselines(), RoundsTable()}, nil
	case "E9":
		return []*metrics.Table{E9SmallRange()}, nil
	case "E10":
		return []*metrics.Table{E10Schemes(false), E10Bytes()}, nil
	case "E11":
		return []*metrics.Table{E11LocalAuthBA(runs)}, nil
	case "E12":
		return []*metrics.Table{E12VectorFD(sizes)}, nil
	case "E13":
		return []*metrics.Table{E13AdversaryGrid(runs / 20)}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

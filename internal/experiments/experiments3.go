package experiments

import (
	"crypto/rand"
	"fmt"
	"slices"
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

// index is the experiment index of the package comment, in order: each
// entry's IDs and its tables after runs Monte-Carlo runs over sizes.
var index = []struct {
	ids    []string
	tables func(runs int, sizes []int) []*metrics.Table
}{
	{[]string{"E1"}, func(_ int, sizes []int) []*metrics.Table { return tables(E1KeyDistribution(sizes)) }},
	{[]string{"E2"}, func(_ int, sizes []int) []*metrics.Table { return tables(E2AuthenticatedFD(sizes)) }},
	{[]string{"E3"}, func(_ int, sizes []int) []*metrics.Table { return tables(E3NonAuthFD(sizes)) }},
	{[]string{"E4"}, func(int, []int) []*metrics.Table {
		return tables(E4Amortization([]int{16, 32, 64}, []int{1, 5, 10, 20, 50}), E4Measured(8, 2, 15))
	}},
	{[]string{"E5"}, func(runs int, _ []int) []*metrics.Table { return tables(E5Theorem2(runs)) }},
	{[]string{"E6", "E7"}, func(runs int, _ []int) []*metrics.Table { return tables(E6E7Properties(runs)) }},
	{[]string{"E8"}, func(int, []int) []*metrics.Table { return tables(E8Baselines(), RoundsTable()) }},
	{[]string{"E9"}, func(int, []int) []*metrics.Table { return tables(E9SmallRange()) }},
	{[]string{"E10"}, func(int, []int) []*metrics.Table { return tables(E10Schemes(false), E10Bytes()) }},
	{[]string{"E11"}, func(runs int, _ []int) []*metrics.Table { return tables(E11LocalAuthBA(runs)) }},
	{[]string{"E12"}, func(_ int, sizes []int) []*metrics.Table { return tables(E12VectorFD(sizes)) }},
	{[]string{"E13"}, func(runs int, _ []int) []*metrics.Table { return tables(E13AdversaryGrid(runs / 20)) }},
}

func tables(t ...*metrics.Table) []*metrics.Table { return t }

// scale returns the Monte-Carlo run count and the system sizes of a
// report-scale or quick run.
func scale(quick bool) (runs int, sizes []int) {
	if quick {
		return 10, []int{4, 8, 16}
	}
	return 200, DefaultSizes
}

// All runs every experiment and returns the tables in index order.
// quick trims the Monte-Carlo counts and sizes for fast runs.
func All(quick bool) []*metrics.Table {
	runs, sizes := scale(quick)
	var out []*metrics.Table
	for _, e := range index {
		out = append(out, e.tables(runs, sizes)...)
	}
	return out
}

// ByID returns the tables for one experiment ID ("E1".."E13"), as All
// prints them.
func ByID(id string, quick bool) ([]*metrics.Table, error) {
	runs, sizes := scale(quick)
	for _, e := range index {
		if slices.Contains(e.ids, id) {
			return e.tables(runs, sizes), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

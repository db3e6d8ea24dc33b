// Package repro's root benchmarks: one testing.B target per experiment in
// internal/experiments' index. Each benchmark reports the experiment's headline metric
// (messages, entries, or crossover) via b.ReportMetric alongside wall
// time, so `go test -bench=. -benchmem` regenerates the paper's
// quantitative story. The hot-path micro benchmarks live in the test
// files of the package each one measures, beside its allocation pin
// (sig, ba, core, keydist, netcond, sim — PERF.md lists them).
package repro

import (
	"crypto/rand"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/ba"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sig"
	"repro/internal/sim"
)

// mustCluster builds an established cluster for benchmarks.
func mustCluster(b *testing.B, n, t int, seed int64) *core.Cluster {
	b.Helper()
	c, err := core.New(model.Config{N: n, T: t}, core.WithSeed(seed))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.EstablishAuthentication(); err != nil {
		b.Fatal(err)
	}
	return c
}

// declared returns the failure-free message count the named driver
// declares at (n, t).
func declared(b *testing.B, name string, n, t int) int {
	msgs, _ := driver(b, name).Verdicts().FailureFree(protocol.Instance{N: n, T: t})
	return msgs
}

// driver resolves a built-in driver.
func driver(b *testing.B, name string) protocol.Driver {
	b.Helper()
	d, err := protocol.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkE1KeyDistribution measures the cost of establishing local
// authentication (paper claim: 3n(n−1) messages, 3 rounds): n key
// generations plus the handshake, on a fresh cluster every iteration —
// exactly what Cluster.Reset and the campaign setup cache amortize
// away.
func BenchmarkE1KeyDistribution(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			want := keydist.ExpectedMessages(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := core.New(model.Config{N: n, T: (n - 1) / 3}, core.WithSeed(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				rep, err := c.EstablishAuthentication()
				if err != nil {
					b.Fatal(err)
				}
				if got := rep.Snapshot.Messages; got != want {
					b.Fatalf("handshake sent %d messages, want %d", got, want)
				}
			}
			b.ReportMetric(float64(want), "messages")
			b.ReportMetric(float64(want), "paper-3n(n-1)")
		})
	}
}

// BenchmarkE2AuthenticatedFD measures one chain-protocol run (paper
// claim: n−1 messages, the minimum).
func BenchmarkE2AuthenticatedFD(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := mustCluster(b, n, (n-1)/3, 42)
			b.ResetTimer()
			var msgs int
			for i := 0; i < b.N; i++ {
				rep, err := c.RunFailureDiscovery([]byte("value"))
				if err != nil {
					b.Fatal(err)
				}
				msgs = rep.Snapshot.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
			b.ReportMetric(float64(n-1), "paper-n-1")
		})
	}
}

// BenchmarkE3NonAuthFD measures one baseline run (paper claim: O(n·t)).
func BenchmarkE3NonAuthFD(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		t := (n - 1) / 3
		b.Run(fmt.Sprintf("n=%d_t=%d", n, t), func(b *testing.B) {
			c, err := core.New(model.Config{N: n, T: t}, core.WithSeed(42))
			if err != nil {
				b.Fatal(err)
			}
			nonauth := driver(b, protocol.NameNonAuth)
			var msgs int
			for i := 0; i < b.N; i++ {
				out, err := nonauth.Run(protocol.Instance{N: n, T: t}, c)
				if err != nil {
					b.Fatal(err)
				}
				msgs = out.Snapshot.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
			b.ReportMetric(float64(declared(b, protocol.NameNonAuth, n, t)), "paper-(t+1)(n-1)")
		})
	}
}

// BenchmarkE4Amortization measures the full lifecycle — key distribution
// plus k authenticated runs — and reports its messages, k baseline runs'
// and the crossover run count.
func BenchmarkE4Amortization(b *testing.B) {
	const n, t, k = 16, 5, 10
	var local int
	for i := 0; i < b.N; i++ {
		c := mustCluster(b, n, t, int64(i))
		for r := 0; r < k; r++ {
			if _, err := c.RunFailureDiscovery([]byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		local = c.Ledger().TotalMessages()
	}
	chain, base := declared(b, protocol.NameChain, n, t), declared(b, protocol.NameNonAuth, n, t)
	saving := base - chain
	b.ReportMetric(float64((keydist.ExpectedMessages(n)+saving-1)/saving), "crossover-k*")
	b.ReportMetric(float64(local), "localauth-msgs")
	b.ReportMetric(float64(k*base), "nonauth-msgs")
}

// BenchmarkE8Baselines contrasts OM(t), SM(t), and FD costs.
func BenchmarkE8Baselines(b *testing.B) {
	b.Run("OMt/n=10_t=3", func(b *testing.B) {
		cfg := model.Config{N: 10, T: 3}
		var total int64
		for i := 0; i < b.N; i++ {
			entries := new(atomic.Int64)
			procs := make([]sim.Process, cfg.N)
			for j := 0; j < cfg.N; j++ {
				opts := []ba.EIGOption{ba.WithEntryCounter(entries)}
				if model.NodeID(j) == ba.Sender {
					opts = append(opts, ba.WithEIGValue([]byte("v")))
				}
				node, err := ba.NewEIGNode(cfg, model.NodeID(j), opts...)
				if err != nil {
					b.Fatal(err)
				}
				procs[j] = node
			}
			eng, err := sim.New(cfg, procs)
			if err != nil {
				b.Fatal(err)
			}
			eng.Run(ba.EIGEngineRounds(cfg.T))
			total = entries.Load()
		}
		b.ReportMetric(float64(total), "relayed-entries")
	})
	b.Run("FD/n=10_t=3", func(b *testing.B) {
		c := mustCluster(b, 10, 3, 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunFailureDiscovery([]byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(9), "messages")
	})
}

// BenchmarkE9SmallRange measures the silence-as-default saving.
func BenchmarkE9SmallRange(b *testing.B) {
	for _, v := range []byte{0, 1} {
		b.Run(fmt.Sprintf("value=%d", v), func(b *testing.B) {
			c := mustCluster(b, 16, 5, 11)
			smallRange := driver(b, protocol.NameSmallRange)
			b.ResetTimer()
			var msgs int
			for i := 0; i < b.N; i++ {
				out, err := smallRange.Run(protocol.Instance{N: 16, T: 5, Value: []byte{v}}, c)
				if err != nil {
					b.Fatal(err)
				}
				msgs = out.Snapshot.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// BenchmarkE10Sign measures per-scheme signing cost.
func BenchmarkE10Sign(b *testing.B) {
	msg := []byte("benchmark message for scheme comparison")
	for _, name := range []string{sig.SchemeEd25519, sig.SchemeECDSA, sig.SchemeHMAC} {
		b.Run(name, func(b *testing.B) {
			scheme, err := sig.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			signer, err := scheme.Generate(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := signer.Sign(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10Verify measures per-scheme verification cost.
func BenchmarkE10Verify(b *testing.B) {
	msg := []byte("benchmark message for scheme comparison")
	for _, name := range []string{sig.SchemeEd25519, sig.SchemeECDSA, sig.SchemeHMAC} {
		b.Run(name, func(b *testing.B) {
			scheme, err := sig.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			signer, err := scheme.Generate(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			sg, err := signer.Sign(msg)
			if err != nil {
				b.Fatal(err)
			}
			pred := signer.Predicate()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !pred.Test(msg, sg) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

// BenchmarkE5E6E7Properties runs the adversarial property matrices once
// per iteration — the Monte-Carlo engines behind experiments E5–E7.
func BenchmarkE5E6E7Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E5Theorem2(1)
		experiments.E6E7Properties(1)
	}
}

// BenchmarkE11LocalAuthBA runs the G3-attack comparison (SM splits, FD
// discovers) once per iteration.
func BenchmarkE11LocalAuthBA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E11LocalAuthBA(1)
	}
}

// BenchmarkE12VectorFD measures the all-senders vector round: n rotated
// chain instances, n(n−1) messages, sharing t+1 rounds.
func BenchmarkE12VectorFD(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tol := (n - 1) / 3
			cfg := model.Config{N: n, T: tol}
			scheme, err := sig.ByName(sig.SchemeEd25519)
			if err != nil {
				b.Fatal(err)
			}
			kd := make([]*keydist.Node, n)
			kdProcs := make([]sim.Process, n)
			memo := new(sig.VerifyMemo)
			for i := 0; i < n; i++ {
				node, err := keydist.NewNode(cfg, model.NodeID(i), scheme, sim.SeededReader(sim.NodeSeed(12, i)), memo)
				if err != nil {
					b.Fatal(err)
				}
				kd[i] = node
				kdProcs[i] = node
			}
			eng, err := sim.New(cfg, kdProcs)
			if err != nil {
				b.Fatal(err)
			}
			eng.Run(keydist.RoundsTotal)
			b.ResetTimer()
			var msgs int
			for i := 0; i < b.N; i++ {
				procs := make([]sim.Process, n)
				for j := 0; j < n; j++ {
					node, err := fd.NewVectorNode(cfg, model.NodeID(j), kd[j].Signer(), kd[j].Directory(), []byte("p"))
					if err != nil {
						b.Fatal(err)
					}
					procs[j] = node
				}
				eng, err := sim.New(cfg, procs)
				if err != nil {
					b.Fatal(err)
				}
				msgs = eng.Run(fd.ChainEngineRounds(tol)).Counters.Messages()
			}
			b.ReportMetric(float64(msgs), "messages")
			b.ReportMetric(float64(declared(b, protocol.NameVector, n, tol)), "declared-n(n-1)")
		})
	}
}

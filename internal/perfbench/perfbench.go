// Package perfbench holds the repository's headline hot-path benchmark
// bodies. The root bench_test.go targets and the `fdbench -perf` JSON
// suite both run these same closures, so the numbers in a PR description
// (`go test -bench`) and the BENCH_<pr>.json trajectory can never
// silently measure different workloads.
package perfbench

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/ba"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/sched"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/transport"
)

// mustChain builds a hops-layer Ed25519 chain, the directory verifying
// it, and one spare signer for extension benchmarks.
func mustChain(b *testing.B, hops int) (*sig.Chain, sig.MapDirectory, []sig.Signer) {
	b.Helper()
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		b.Fatal(err)
	}
	dir := make(sig.MapDirectory)
	signers := make([]sig.Signer, hops+1)
	for i := range signers {
		s, err := scheme.Generate(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		signers[i] = s
		dir[model.NodeID(i)] = s.Predicate()
	}
	chain, err := sig.NewChain([]byte("value"), signers[0])
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i < hops; i++ {
		chain, err = chain.Extend(model.NodeID(i-1), signers[i])
		if err != nil {
			b.Fatal(err)
		}
	}
	return chain, dir, signers
}

// ChainVerify measures full chain verification at the given length.
// cold resets the verified-signature memo every iteration (the first
// receiver's cost: every layer pays a public-key verification); warm
// leaves it in place (every re-verification of a chain the process has
// already seen).
func ChainVerify(hops int, cold bool) func(b *testing.B) {
	return func(b *testing.B) {
		chain, dir, _ := mustChain(b, hops)
		b.ReportMetric(float64(len(chain.Marshal())), "wire-bytes")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				b.StopTimer()
				sig.ResetVerifyMemo()
				b.StartTimer()
			}
			if _, err := chain.Verify(model.NodeID(hops-1), dir); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ChainExtend measures one chain extension (sign + derive the next
// nested encoding) at the given chain length.
func ChainExtend(hops int) func(b *testing.B) {
	return func(b *testing.B) {
		chain, _, signers := mustChain(b, hops)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := chain.Extend(model.NodeID(hops-1), signers[hops]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// EIG measures a full failure-free OM(t) agreement: path-keyed tree
// ingestion, relaying, and the bottom-up resolve, across all n nodes.
// Every iteration asserts that all nodes decided the sender's value, so
// the benchmark cannot keep timing a silently broken agreement.
func EIG(n, t int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := model.Config{N: n, T: t}
		value := []byte("v")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			entries := new(atomic.Int64)
			nodes := make([]*ba.EIGNode, cfg.N)
			procs := make([]sim.Process, cfg.N)
			for j := 0; j < cfg.N; j++ {
				opts := []ba.EIGOption{ba.WithEntryCounter(entries)}
				if model.NodeID(j) == ba.Sender {
					opts = append(opts, ba.WithEIGValue(value))
				}
				node, err := ba.NewEIGNode(cfg, model.NodeID(j), opts...)
				if err != nil {
					b.Fatal(err)
				}
				nodes[j] = node
				procs[j] = node
			}
			eng, err := sim.New(cfg, procs)
			if err != nil {
				b.Fatal(err)
			}
			eng.Run(ba.EIGEngineRounds(cfg.T))
			for j, node := range nodes {
				if d := node.Decision(); !bytes.Equal(d.Value, value) {
					b.Fatalf("node %d decided %q, want %q", j, d.Value, value)
				}
			}
		}
	}
}

// FDRun measures one authenticated failure-discovery run on an
// established cluster. The value varies per iteration: real runs carry
// fresh values, so a fixed value would let every iteration after the
// first ride the verified-signature memo and the benchmark would stop
// measuring verification at all. Within one run, receivers re-verifying
// layers an earlier hop verified DO hit the memo — the simulator's nodes
// share a process, as they do in every sim-backed deployment here; a
// cluster of separate OS processes would pay more.
func FDRun(n, t int) func(b *testing.B) {
	return func(b *testing.B) {
		c, err := core.New(model.Config{N: n, T: t}, core.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.EstablishAuthentication(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunFailureDiscovery([]byte(fmt.Sprintf("value-%d", i))); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// KeydistHandshake measures the full local-authentication setup — n key
// generations plus the 3n(n−1)-message challenge/response handshake —
// that Cluster.Reset and the campaign setup cache amortize away. Every
// iteration builds a fresh cluster (an established one cannot establish
// again), so this is exactly the per-run cost the uncached path pays.
func KeydistHandshake(n, t int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := core.New(model.Config{N: n, T: t}, core.WithSeed(1), core.WithKeySeed(1))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := c.EstablishAuthentication()
			if err != nil {
				b.Fatal(err)
			}
			if got, want := rep.Snapshot.Messages, keydist.ExpectedMessages(n); got != want {
				b.Fatalf("handshake sent %d messages, want %d", got, want)
			}
		}
	}
}

// HandshakeRoundTrip measures one challenge→respond→verify exchange on
// the zero-alloc codec path: encode into reused buffers, aliasing
// parses, pooled sign-payload scratch. This is the per-peer unit the
// handshake executes n(n−1) times.
func HandshakeRoundTrip(schemeName string) func(b *testing.B) {
	return func(b *testing.B) {
		scheme, err := sig.ByName(schemeName)
		if err != nil {
			b.Fatal(err)
		}
		signer, err := scheme.Generate(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		pred := signer.Predicate()
		issued, err := keydist.NewChallenge(0, 1, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		chalWire := make([]byte, 0, issued.MarshalSize())
		respWire := make([]byte, 0, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			chalWire = issued.MarshalTo(chalWire[:0])
			ch, err := keydist.ParseChallenge(chalWire)
			if err != nil {
				b.Fatal(err)
			}
			resp, err := keydist.Respond(ch, signer)
			if err != nil {
				b.Fatal(err)
			}
			respWire = resp.MarshalTo(respWire[:0])
			echoed, err := keydist.ParseResponse(respWire)
			if err != nil {
				b.Fatal(err)
			}
			if err := keydist.VerifyResponse(issued, echoed, pred); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// NetcondFates measures what a lossy instance pays to open its links:
// NewModel plus one lossy, uniform-latency Fate on each of the n(n−1)
// directed links, whose first draw builds the link's seeded stream.
// This is the netcond share of every link-degrading cell in a campaign
// grid, where most links carry one or two messages per run.
func NetcondFates(n int) func(b *testing.B) {
	return func(b *testing.B) {
		spec := netcond.Spec{Latency: &netcond.LatencySpec{Dist: netcond.DistUniform, Min: 0, Max: 2}, Loss: 0.05}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := netcond.NewModel(spec, n, int64(i))
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if from != to {
						m.Fate(model.Message{From: model.NodeID(from), To: model.NodeID(to)}, 1)
					}
				}
			}
		}
	}
}

// SeededReader measures one node's entropy stream as cluster setup
// builds it (two per node): construct, read 32 bytes.
func SeededReader(b *testing.B) {
	var buf [32]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SeededReader(int64(i)).Read(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// CampaignSweep measures a one-protocol seed sweep at one fixed
// (scheme, n, t) cell — the paper's many-runs-one-setup workload, for
// any registered protocol driver. warm runs with the per-worker setup
// cache (key material and handshake paid once), cold with per-instance
// fresh setup. Single worker, so the two modes differ only in setup
// reuse; the cached-vs-fresh differential test guarantees both produce
// the same report, so this benchmark measures pure setup overhead.
func CampaignSweep(protocol string, n, t, seeds int, warm bool) func(b *testing.B) {
	return func(b *testing.B) {
		spec := campaign.Spec{
			Name:      "bench-" + protocol + "-sweep",
			Protocols: []string{protocol},
			Cases:     []campaign.Case{{N: n, T: t}},
			SeedBase:  1,
			SeedCount: seeds,
		}
		var opts []campaign.Option
		if !warm {
			opts = append(opts, campaign.WithoutSetupCache())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := campaign.Run(spec, 1, opts...)
			if err != nil {
				b.Fatal(err)
			}
			for _, g := range rep.Groups {
				if g.Errors != 0 {
					b.Fatalf("group %s: %d errored instances", g.Key, g.Errors)
				}
			}
		}
	}
}

// CampaignChainSweep is CampaignSweep over the chain protocol — the
// perf-trajectory row name every BENCH_<pr>.json since PR 3 carries.
func CampaignChainSweep(n, t, seeds int, warm bool) func(b *testing.B) {
	return CampaignSweep(campaign.ProtoChain, n, t, seeds, warm)
}

// CampaignFDBASweep is CampaignSweep over the FDBA agreement protocol:
// the same cluster setup cell as chain (one handshake per sweep when
// warm), but the runs pay the 2t+6-round agreement schedule. Honest
// sweeps exercise the headline failure-free claim — FDBA costs the same
// n−1 messages as chain FD.
func CampaignFDBASweep(n, t, seeds int, warm bool) func(b *testing.B) {
	return CampaignSweep(campaign.ProtoFDBA, n, t, seeds, warm)
}

// SchedChainSweep measures the SAME 100-seed chain sweep as
// CampaignChainSweep(warm), but dispatched through the fault-tolerant
// coordinator/worker scheduler over an in-memory pipe instead of the
// in-process pool: every batch pays lease framing, SHA-256 payload
// checksums, and two JSON round-trips. The delta against
// campaign_chain_sweep_warm in the same BENCH file is therefore the
// scheduler's pure dispatch overhead — the price of crash tolerance
// when nothing crashes.
func SchedChainSweep(n, t, seeds int) func(b *testing.B) {
	return func(b *testing.B) {
		spec := campaign.Spec{
			Name:      "bench-sched-chain-sweep",
			Protocols: []string{campaign.ProtoChain},
			Cases:     []campaign.Case{{N: n, T: t}},
			SeedBase:  1,
			SeedCount: seeds,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := context.Background()
			coord := sched.NewCoordinator(ctx, sched.Config{})
			server, client := transport.Pipe()
			go coord.Attach(server)
			go sched.RunWorker(ctx, client, sched.WorkerConfig{Name: "bench"})
			rep, err := campaign.RunWith(spec, coord)
			if err != nil {
				b.Fatal(err)
			}
			if out := coord.Outcome(); len(out.DLQ) != 0 {
				b.Fatalf("benchmark sweep dead-lettered %d batches", len(out.DLQ))
			}
			for _, g := range rep.Groups {
				if g.Errors != 0 {
					b.Fatalf("group %s: %d errored instances", g.Key, g.Errors)
				}
			}
		}
	}
}

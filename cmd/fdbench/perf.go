package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/perfbench"
	"repro/internal/report"
	"repro/internal/sig"
)

// The perf suite: the repository's headline hot-path benchmarks
// (internal/perfbench — the same closures bench_test.go runs), runnable
// from the fdbench binary (no `go test` needed) and serialized as JSON
// so the perf trajectory across PRs is machine-readable. BENCH_<pr>.json
// files accumulate at the repo root; PERF.md describes the methodology
// and `fdreport diff` gates consecutive files against a threshold.
// The schema and document types live in internal/report (the consumer),
// so the writer and the differ cannot drift apart.

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// perfSuite lists the headline hot paths: chain-signature verification
// (cold and memoized), chain extension, full EIG agreements (deep n=16
// t=3 and the wide n=64/n=128 t=2 grid points),
// authenticated failure-discovery runs with fresh values at n=16, the
// keydist handshake (the setup cost that Reset and the campaign cache
// amortize, plus its per-peer round-trip unit), 100-seed campaign
// sweeps — chain FD and the FDBA agreement extension — with cold
// (per-instance) vs warm (cached) setup, and the agreement service
// under sustained concurrent load (the serve_sustained rows, which
// also carry p50/p99 latency and instances/sec).
func perfSuite() []namedBench {
	return []namedBench{
		{"chain_verify_cold/hops=16", perfbench.ChainVerify(16, true)},
		{"chain_verify_warm/hops=16", perfbench.ChainVerify(16, false)},
		{"chain_extend/hops=16", perfbench.ChainExtend(16)},
		{"eig/n=16_t=3", perfbench.EIG(16, 3)},
		{"eig/n=64_t=2", perfbench.EIG(64, 2)},
		{"eig/n=128_t=2", perfbench.EIG(128, 2)},
		{"fd_chain_run/n=16_t=5", perfbench.FDRun(16, 5)},
		{"keydist_handshake/n=16_t=5", perfbench.KeydistHandshake(16, 5)},
		{"keydist_roundtrip/ed25519", perfbench.HandshakeRoundTrip(sig.SchemeEd25519)},
		{"netcond_fates/n=16", perfbench.NetcondFates(16)},
		{"seeded_reader/32B", perfbench.SeededReader},
		{"campaign_chain_sweep_cold/n=8_t=2_seeds=100", perfbench.CampaignChainSweep(8, 2, 100, false)},
		{"campaign_chain_sweep_warm/n=8_t=2_seeds=100", perfbench.CampaignChainSweep(8, 2, 100, true)},
		{"campaign_fdba_sweep_cold/n=8_t=2_seeds=100", perfbench.CampaignFDBASweep(8, 2, 100, false)},
		{"campaign_fdba_sweep_warm/n=8_t=2_seeds=100", perfbench.CampaignFDBASweep(8, 2, 100, true)},
		{"sched_chain_sweep/n=8_t=2_seeds=100", perfbench.SchedChainSweep(8, 2, 100)},
		{"serve_sustained/chain/n=8_t=2_clients=8", perfbench.ServeChainSustained(8, 2, 8, 200)},
		{"serve_sustained/fdba/n=8_t=2_clients=8", perfbench.ServeFDBASustained(8, 2, 8, 100)},
	}
}

// gitCommit best-effort identifies the build's source revision: the
// vcs.revision baked in by `go build` when the module is built from a
// git checkout, else the GIT_COMMIT environment variable (CI builds
// from tarballs), else empty.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return os.Getenv("GIT_COMMIT")
}

// runPerfSuite executes the headline benchmarks and writes the JSON
// report to path. label names the run in the perf trajectory (usually
// the BENCH_<pr> tag); empty falls back to the BENCH_LABEL environment
// variable.
func runPerfSuite(path, label string) error {
	if label == "" {
		label = os.Getenv("BENCH_LABEL")
	}
	rep := report.PerfReport{
		Schema:     report.PerfSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit:  gitCommit(),
		Label:      label,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, bm := range perfSuite() {
		fmt.Fprintf(os.Stderr, "perf: %s...\n", bm.name)
		res := testing.Benchmark(bm.fn)
		pr := report.PerfResult{
			Name:        bm.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		}
		// Sustained-load benchmarks publish service-level metrics via
		// ReportMetric; copy them into the suite's typed columns so the
		// diff gate can track latency and throughput, not just ns/op.
		pr.P50Ns = res.Extra["p50-ns"]
		pr.P99Ns = res.Extra["p99-ns"]
		pr.OpsPerSec = res.Extra["inst/sec"]
		rep.Benchmarks = append(rep.Benchmarks, pr)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perf: wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
	return nil
}

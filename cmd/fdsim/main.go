// Command fdsim runs one cluster lifecycle — key distribution where the
// protocol needs it, then runs of any registered protocol driver — and
// prints the traffic ledger and per-node outcomes. The cluster runs on the
// in-process lockstep simulator or, with -transport tcp, over a loopback
// TCP mesh with one goroutine per node; standard output is the same,
// byte for byte, on both (everything transport-specific goes to stderr).
//
// Usage:
//
//	fdsim -n 8 -t 2 -runs 3
//	fdsim -n 16 -t 5 -protocol nonauth      # any `fdcampaign -list-protocols` name
//	fdsim -n 8 -t 2 -protocol fdba          # FD→BA agreement extension
//	fdsim -n 7 -t 2 -protocol eig           # OM(t) oral messages
//	fdsim -n 8 -t 2 -adversary crash-relay  # inject a fault (campaign adversary syntax)
//	fdsim -n 8 -t 2 -adversary "coalition:size=2,behavior=equivocate,partition=even-odd"
//	fdsim -n 8 -t 2 -trace -                # log every delivery to stderr
//	fdsim -n 8 -t 2 -trace run.trace        # ... or to a file
//	fdsim -n 8 -t 2 -netcond "latency=fixed-1,loss=0.05"    # degraded network
//	fdsim -n 8 -t 2 -netcond "partition=even-odd@1-3"       # healing partition
//	fdsim -n 8 -t 2 -netcond "churn=2@2-4"  # P2 crashes round 2, rejoins round 4
//	fdsim -n 5 -t 1 -transport tcp          # the same run over real sockets
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

func main() {
	var (
		n          = flag.Int("n", 8, "number of nodes")
		t          = flag.Int("t", 2, "fault bound")
		runs       = flag.Int("runs", 1, "protocol runs after key distribution")
		proto      = flag.String("protocol", "chain", "registered protocol driver (fdcampaign -list-protocols)")
		scheme     = flag.String("scheme", "ed25519", "signature scheme")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		value      = flag.String("value", "", "sender's initial value (empty = the driver's canonical proposal)")
		adv        = flag.String("adversary", "", "adversary: crash-sender | crash-relay | equivocate | compact strategy syntax (empty = none)")
		trace      = flag.String("trace", "", "write a per-delivery message trace to this path ('-' = stderr)")
		netcondF   = flag.String("netcond", "", "network condition (compact syntax, e.g. \"latency=fixed-1,loss=0.05\" or \"partition=even-odd@1-3,churn=2@2-4\"; empty = ideal; key distribution always runs ideal)")
		transportF = flag.String("transport", "sim", "sim (lockstep simulator) | tcp (loopback TCP mesh, one goroutine per node)")
	)
	flag.Parse()
	// SIGINT/SIGTERM close a TCP mesh's endpoints, which fails the run in
	// progress (its runners' Recv fails) so the process exits cleanly
	// instead of leaving sockets half-open.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *n, *t, *runs, *proto, *scheme, *seed, *value, *adv, *trace, *netcondF, *transportF); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "fdsim: interrupted, shut down cleanly")
			return
		}
		fmt.Fprintf(os.Stderr, "fdsim: %v\n", err)
		os.Exit(1)
	}
}

// openTracer builds the buffered delivery tracer for -trace; the
// returned WriterTracer's Close flushes (and closes the file when one
// was opened).
func openTracer(path string) (*sim.WriterTracer, error) {
	if path == "-" {
		return sim.NewWriterTracer(os.Stderr), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return sim.NewWriterTracer(f), nil
}

func run(ctx context.Context, n, t, runs int, proto, scheme string, seed int64, value, adv, trace, netcondStr, transportName string) error {
	if transportName != "sim" && transportName != "tcp" {
		return fmt.Errorf("unknown transport %q (sim | tcp)", transportName)
	}
	drv, err := protocol.Lookup(proto)
	if err != nil {
		return err
	}
	inst := protocol.Instance{N: n, T: t, Value: []byte(value), Seed: seed, KeySeed: seed}
	caps := drv.Capabilities()
	if caps.UsesSignatures {
		inst.Scheme = scheme
	}
	if adv != "" {
		if inst.Strategy, err = campaign.ParseAdversary(adv); err != nil {
			return err
		}
	}
	nc, err := netcond.Parse(netcondStr)
	if err != nil {
		return err
	}
	if !nc.IsIdeal() {
		inst.Net = &nc
	}
	if !caps.Supports(n, t, inst.Strategy) || !caps.SupportsNet(n, t, inst.Strategy, inst.Net) {
		return fmt.Errorf("protocol %s cannot express n=%d t=%d under adversary %q and netcond %q", proto, n, t, adv, netcondStr)
	}

	coreOpts := []core.Option{core.WithScheme(scheme), core.WithSeed(seed)}
	if trace != "" {
		tracer, err := openTracer(trace)
		if err != nil {
			return err
		}
		defer tracer.Close()
		coreOpts = append(coreOpts, core.WithTracer(tracer))
	}
	if transportName == "tcp" {
		// Wire-level traffic counters, aggregated across all n meshes.
		var wire transport.ConnStats
		lb, err := transport.BootLoopback(ctx, n, transport.WithConnStats(&wire))
		if err != nil {
			return err
		}
		defer lb.Close()
		for i := 0; i < n; i++ {
			fmt.Fprintf(os.Stderr, "  P%d @ %s\n", i, lb.Addrs[model.NodeID(i)])
		}
		defer func() { fmt.Fprintf(os.Stderr, "wire: %s\n", wire.Snapshot()) }()
		coreOpts = append(coreOpts, core.WithEngine(transport.MeshEngine(lb.Endpoints)))
	}
	cluster, err := core.New(inst.Config(), coreOpts...)
	if err != nil {
		return err
	}

	if caps.UsesSignatures {
		rep, err := cluster.EstablishAuthentication()
		if err != nil {
			return err
		}
		fmt.Printf("key distribution: %s\n", rep)
	}
	if !inst.Strategy.IsHonest() {
		fmt.Printf("adversary: %s, faulty %v\n", inst.Strategy.Name, inst.Faulty().Sorted())
	}
	if inst.Net != nil {
		fmt.Printf("network condition: %s (seed %d)\n", nc.CanonicalName(), seed)
	}

	// Every run replays the same seeded instance over the one setup: the
	// same faults and the same scripted degradation from round 1.
	for i := 0; i < runs; i++ {
		out, err := drv.Run(inst, cluster)
		if err != nil {
			return err
		}
		fmt.Printf("run %d: [%s] steps=%d/%d %s agreed=%v discovered=%v\n",
			i+1, proto, out.Rounds, out.RoundBound, out.Snapshot, out.Agreed, out.Discovered)
		for _, sr := range out.SubRuns {
			if len(out.SubRuns) > 1 {
				fmt.Printf("  sender %v:\n", sr.Sender)
			}
			for _, o := range sr.Outcomes {
				fmt.Printf("  %s\n", o)
			}
		}
	}
	fmt.Printf("ledger: total=%d messages (keydist=%d, %d runs)\n",
		cluster.Ledger().TotalMessages(), cluster.Ledger().KeyDistMessages(), cluster.Ledger().FDRuns())
	return nil
}

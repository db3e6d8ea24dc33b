// Command fdsim runs one simulated cluster lifecycle — key distribution
// followed by failure-discovery runs — and prints the traffic ledger and
// per-node outcomes.
//
// Usage:
//
//	fdsim -n 8 -t 2 -runs 3
//	fdsim -n 16 -t 5 -protocol nonauth
//	fdsim -n 8 -t 2 -protocol fdba          # FD→BA agreement extension
//	fdsim -n 8 -t 2 -protocol sm            # SM(t) signed messages
//	fdsim -n 8 -t 2 -fault silent-relay     # inject a fault
//	fdsim -n 8 -t 2 -trace -                # log every delivery to stderr
//	fdsim -n 8 -t 2 -trace run.trace        # ... or to a file
//	fdsim -n 8 -t 2 -netcond "latency=fixed-1,loss=0.05"    # degraded network
//	fdsim -n 8 -t 2 -netcond "partition=even-odd@1-3"       # healing partition
//	fdsim -n 8 -t 2 -netcond "churn=2@2-4"  # P2 crashes round 2, rejoins round 4
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/sim"
)

func main() {
	var (
		n        = flag.Int("n", 8, "number of nodes")
		t        = flag.Int("t", 2, "fault bound")
		runs     = flag.Int("runs", 1, "failure-discovery runs after key distribution")
		protocol = flag.String("protocol", "chain", "chain | nonauth | smallrange | fdba | sm")
		scheme   = flag.String("scheme", "ed25519", "signature scheme")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		value    = flag.String("value", "example-value", "sender's initial value")
		fault    = flag.String("fault", "", "inject: silent-relay | silent-sender | tamper-relay | equivocating-sender")
		trace    = flag.String("trace", "", "write a per-delivery message trace to this path ('-' = stderr)")
		netcondF = flag.String("netcond", "", "network condition (compact syntax, e.g. \"latency=fixed-1,loss=0.05\" or \"partition=even-odd@1-3,churn=2@2-4\"; empty = ideal)")
	)
	flag.Parse()
	if err := run(*n, *t, *runs, *protocol, *scheme, *seed, *value, *fault, *trace, *netcondF); err != nil {
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

func run(n, t, runs int, protocol, scheme string, seed int64, value, fault, trace, netcondStr string) error {
	nc, err := netcond.Parse(netcondStr)
	if err != nil {
		return err
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
	cluster, err := core.New(model.Config{N: n, T: t}, coreOpts...)
	if err != nil {
		return err
	}

	proto := core.ProtocolChain
	switch protocol {
	case "chain":
	case "nonauth":
		proto = core.ProtocolNonAuth
	case "smallrange":
		proto = core.ProtocolSmallRange
		value = "\x01"
	case "fdba":
		proto = core.ProtocolFDBA
	case "sm":
		proto = core.ProtocolSM
	default:
		return fmt.Errorf("unknown protocol %q", protocol)
	}

	if proto != core.ProtocolNonAuth {
		rep, err := cluster.EstablishAuthentication()
		if err != nil {
			return err
		}
		fmt.Printf("key distribution: %s\n", rep)
	}

	for i := 0; i < runs; i++ {
		opts := []core.RunOption{core.WithProtocol(proto)}
		if !nc.IsIdeal() {
			// Fresh model per run: each run replays the same scripted
			// degradation from round 1.
			if nc.DegradesLinks() {
				opts = append(opts, core.WithNetwork(netcond.NewModel(nc, n, seed)))
			}
			for _, ch := range nc.Churn {
				opts = append(opts, core.WithChurn(ch))
			}
		}
		if fault != "" {
			faultOpts, err := buildFault(cluster, fault, value)
			if err != nil {
				return err
			}
			opts = append(opts, faultOpts...)
		}
		rep, err := cluster.RunFailureDiscovery([]byte(value), opts...)
		if err != nil {
			return err
		}
		fmt.Printf("run %d: %s\n", i+1, rep)
		for _, o := range rep.Outcomes {
			fmt.Printf("  %s\n", o)
		}
	}
	fmt.Printf("ledger: total=%d messages (keydist=%d, %d runs)\n",
		cluster.Ledger().TotalMessages(), cluster.Ledger().KeyDistMessages(), cluster.Ledger().FDRuns())
	return nil
}

// buildFault wires the named adversary into the next run.
func buildFault(c *core.Cluster, name, value string) ([]core.RunOption, error) {
	switch name {
	case "silent-relay":
		return []core.RunOption{core.WithProcess(1, sim.Silent{})}, nil
	case "silent-sender":
		return []core.RunOption{core.WithProcess(0, sim.Silent{})}, nil
	case "tamper-relay":
		signer, err := c.Signer(1)
		if err != nil {
			return nil, err
		}
		return []core.RunOption{core.WithProcess(1,
			adversary.NewResignRelay(c.Config(), 1, signer, []byte("forged")))}, nil
	case "equivocating-sender":
		signer, err := c.Signer(0)
		if err != nil {
			return nil, err
		}
		faceOne, err := adversary.PartitionFaceOne(adversary.PartitionHalves, c.Config().N)
		if err != nil {
			return nil, err
		}
		return []core.RunOption{core.WithProcess(0,
			adversary.NewEquivocatingSenderFaces(c.Config(), signer, []byte(value), []byte(value+"'"), faceOne))}, nil
	default:
		return nil, fmt.Errorf("unknown fault %q", name)
	}
}

// Command fdnet runs the full protocol stack over REAL TCP sockets on
// localhost: one goroutine per node, each with its own TCP mesh endpoint,
// executing key distribution and then a chain failure-discovery run.
// It demonstrates that the library is transport-agnostic — the exact same
// node implementations the simulator drives run over the network.
//
// Usage:
//
//	fdnet -n 5 -t 1
//	fdnet -n 8 -t 2 -value "deploy v2.1"
//	fdnet -n 5 -t 1 -trace -                # per-delivery trace to stderr
//	fdnet -n 5 -t 1 -trace run.trace        # ... or to a file
//	fdnet -n 5 -t 1 -netcond "latency=fixed-1,loss=0.1"  # degraded FD phase
//	fdnet -n 5 -t 1 -netcond "churn=2@2-4"  # P2 crashes and rejoins with
//	                                        # its phase-1 keys recovered
package main

import (
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/transport"
)

func main() {
	var (
		n        = flag.Int("n", 5, "number of nodes")
		t        = flag.Int("t", 1, "fault bound")
		value    = flag.String("value", "hello over tcp", "sender's initial value")
		trace    = flag.String("trace", "", "write a per-delivery message trace to this path ('-' = stderr)")
		netcondF = flag.String("netcond", "", "network condition for the FD phase (compact syntax, e.g. \"latency=fixed-1,loss=0.1\"; key distribution always runs ideal)")
		seed     = flag.Int64("seed", 1, "deterministic seed for the network-condition model")
	)
	flag.Parse()
	// SIGINT/SIGTERM close every mesh endpoint, which unblocks the node
	// goroutines (their Recv fails) so the process exits cleanly instead
	// of leaving sockets half-open.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *n, *t, *value, *trace, *netcondF, *seed); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "fdnet: interrupted, shut down cleanly")
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "fdnet: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, n, tol int, value, trace, netcondStr string, seed int64) error {
	cfg := model.Config{N: n, T: tol}
	if err := cfg.Validate(); err != nil {
		return err
	}
	nc, err := netcond.Parse(netcondStr)
	if err != nil {
		return err
	}
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		return err
	}

	// Optional delivery trace, shared by every node's runner: the same
	// buffered WriterTracer the simulator uses, so a socket run's trace
	// compares line for line with fdsim's.
	var runOpts []transport.RunnerOption
	if trace != "" {
		w := io.Writer(os.Stderr)
		if trace != "-" {
			f, err := os.Create(trace)
			if err != nil {
				return err
			}
			w = f
		}
		tracer := sim.NewWriterTracer(w)
		defer tracer.Close()
		runOpts = append(runOpts, transport.WithRunnerTracer(tracer))
	}
	// Wire-level traffic counters, aggregated across all n meshes.
	var wire transport.ConnStats

	// Reserve one localhost port per node.
	addrs := make(map[model.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[model.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	fmt.Printf("cluster: n=%d t=%d\n", n, tol)
	for i := 0; i < n; i++ {
		fmt.Printf("  P%d @ %s\n", i, addrs[model.NodeID(i)])
	}

	// Bring up the mesh: every node connects concurrently.
	endpoints := make([]transport.Transport, n)
	var meshErr error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := transport.NewTCPMesh(model.NodeID(i), addrs, transport.WithConnStats(&wire))
			mu.Lock()
			defer mu.Unlock()
			if err != nil && meshErr == nil {
				meshErr = fmt.Errorf("node %d: %w", i, err)
				return
			}
			endpoints[i] = m
		}(i)
	}
	wg.Wait()
	if meshErr != nil {
		return meshErr
	}
	closeAll := func() {
		for _, ep := range endpoints {
			if ep != nil {
				ep.Close()
			}
		}
	}
	defer closeAll()
	// Graceful shutdown: a signal tears the meshes down, failing the
	// in-progress RunCluster instead of hanging on a dead barrier.
	watchdog := make(chan struct{})
	defer close(watchdog)
	go func() {
		select {
		case <-ctx.Done():
			closeAll()
		case <-watchdog:
		}
	}()

	// Phase 1: key distribution over TCP.
	kdNodes := make([]*keydist.Node, n)
	kdProcs := make([]sim.Process, n)
	for i := 0; i < n; i++ {
		node, err := keydist.NewNode(cfg, model.NodeID(i), scheme, rand.Reader)
		if err != nil {
			return err
		}
		kdNodes[i] = node
		kdProcs[i] = node
	}
	counters := metrics.NewCounters()
	if _, err := transport.RunCluster(endpoints, kdProcs, keydist.RoundsTotal, counters, runOpts...); err != nil {
		return err
	}
	fmt.Printf("\nkey distribution over TCP: %s\n", counters.Snapshot())
	for _, node := range kdNodes {
		if !node.Accepted() {
			return fmt.Errorf("%v accepted only %d/%d predicates", node.ID(), node.Directory().Len(), n)
		}
	}
	fmt.Printf("all %d nodes accepted all predicates (3n(n-1) = %d messages)\n",
		n, keydist.ExpectedMessages(n))

	// Phase 2: chain failure discovery over the same sockets. Only this
	// phase is degraded: the paper establishes authentication once on a
	// healthy network, failures (including network ones) come later.
	fdOpts := append([]transport.RunnerOption{}, runOpts...)
	if nc.DegradesLinks() {
		// One private model per node runner: each draws only from its own
		// directed self→* link streams, so the concurrent runners replay
		// exactly the fates the lockstep engine would.
		fdOpts = append(fdOpts, transport.WithRunnerNetwork(func(model.NodeID) sim.Network {
			return netcond.NewModel(nc, n, seed)
		}))
		fmt.Printf("\nnetwork condition: %s (seed %d)\n", nc.CanonicalName(), seed)
	}
	fdNodes := make([]*fd.ChainNode, n)
	fdProcs := make([]sim.Process, n)
	for i := 0; i < n; i++ {
		var opts []fd.ChainOption
		if model.NodeID(i) == fd.Sender {
			opts = append(opts, fd.WithValue([]byte(value)))
		}
		node, err := fd.NewChainNode(cfg, model.NodeID(i), kdNodes[i].Signer(), kdNodes[i].Directory(), opts...)
		if err != nil {
			return err
		}
		fdNodes[i] = node
		fdProcs[i] = node
	}
	// Churn: the scripted node crashes mid-run and restarts with its key
	// state recovered from phase 1 — restart-with-recovery over real TCP.
	for _, ch := range nc.Churn {
		id := model.NodeID(ch.Node)
		if !id.Valid(n) {
			continue
		}
		i := int(id)
		rebuild := func() (sim.Process, error) {
			var opts []fd.ChainOption
			if id == fd.Sender {
				opts = append(opts, fd.WithValue([]byte(value)))
			}
			return fd.NewChainNode(cfg, id, kdNodes[i].Signer(), kdNodes[i].Directory(), opts...)
		}
		fdProcs[i] = netcond.NewChurner(fdProcs[i], ch, rebuild, nil)
		fmt.Printf("churn: P%d crashes round %d", ch.Node, ch.Crash)
		if ch.Restart > 0 {
			fmt.Printf(", restarts round %d with recovered keys", ch.Restart)
		}
		fmt.Println()
	}
	fdCounters := metrics.NewCounters()
	if _, err := transport.RunCluster(endpoints, fdProcs, fd.ChainEngineRounds(tol), fdCounters, fdOpts...); err != nil {
		return err
	}
	fmt.Printf("\nfailure discovery over TCP: %s\n", fdCounters.Snapshot())
	for _, node := range fdNodes {
		fmt.Printf("  %s\n", node.Outcome())
	}
	fmt.Printf("wire: %s\n", wire.Snapshot())
	return nil
}

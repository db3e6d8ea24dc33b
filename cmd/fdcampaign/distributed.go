package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sched/faults"
	"repro/internal/service"
	"repro/internal/transport"
)

// distFlags carries the distributed-mode configuration out of main.
type distFlags struct {
	coordinator string // listen address: run the coordinator here
	worker      string // coordinator address: run a worker here
	workerName  string
	faultSpec   string // worker-side fault injection (testing/demos)
	expect      int    // MinWorkers
	batch       int
	lease       time.Duration
	retries     int
	dlqPath     string // where the scheduler outcome JSON goes ("" = stderr summary)
	debugAddr   string // coordinator live-telemetry HTTP address ("" = off)

	observer *obs.Recorder // -trace-out recorder (nil = tracing off)
}

// runWorkerMode dials the coordinator and serves its leased batches as
// an agreement-service session (the run options configure the daemon's
// executor, and the -trace-out recorder gets its service.request spans)
// until the coordinator closes the link, the link dies, or
// ctx is canceled. Returns a process exit code.
func runWorkerMode(ctx context.Context, df distFlags, opts []campaign.Option) int {
	conn, err := transport.DialConn(df.worker, transport.WithConnWriteTimeout(10*time.Second))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdcampaign: worker dial: %v\n", err)
		return 1
	}
	if df.faultSpec != "" {
		stack, err := parseFaults(df.faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdcampaign: %v\n", err)
			return 1
		}
		conn = faults.Wrap(conn, stack...)
	}
	name := df.workerName
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	fmt.Fprintf(os.Stderr, "fdcampaign: worker %q serving coordinator %s\n", name, df.worker)
	srv := service.NewServer(service.Config{Options: opts, Recorder: df.observer})
	err = srv.ServeDialled(ctx, conn, name)
	srv.Drain()
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "fdcampaign: worker %q released\n", name)
		return 0
	case ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "fdcampaign: worker %q interrupted\n", name)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "fdcampaign: worker %q: %v\n", name, err)
		return 1
	}
}

// runCoordinatorMode executes the spec through the lease-based scheduler,
// accepting workers on the configured address. Canceling ctx (SIGINT /
// SIGTERM) drains in-flight leases to the DLQ and still returns the
// partial report.
func runCoordinatorMode(ctx context.Context, df distFlags, spec campaign.Spec) (*campaign.Report, sched.Outcome, error) {
	listener, err := transport.ListenConn(df.coordinator)
	if err != nil {
		return nil, sched.Outcome{}, err
	}
	return coordinate(ctx, df, spec, listener)
}

// coordinate is runCoordinatorMode on a bound listener, which it closes.
func coordinate(ctx context.Context, df distFlags, spec campaign.Spec, listener *transport.TCPConnListener) (*campaign.Report, sched.Outcome, error) {
	defer listener.Close()
	fmt.Fprintf(os.Stderr, "fdcampaign: coordinator on %s (waiting for %d worker(s))\n",
		listener.Addr(), df.expect)
	coord := sched.NewCoordinator(ctx, sched.Config{
		BatchSize:   df.batch,
		LeaseTTL:    df.lease,
		RetryBudget: df.retries,
		MinWorkers:  df.expect,
		Observer:    df.observer,
	})
	go coord.Serve(listener)
	if df.debugAddr != "" {
		dbg := &http.Server{Addr: df.debugAddr, Handler: coord.DebugMux()}
		defer dbg.Close()
		go func() {
			fmt.Fprintf(os.Stderr, "fdcampaign: debug endpoint on http://%s/debug/sched\n", df.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "fdcampaign: debug endpoint: %v\n", err)
			}
		}()
	}
	report, err := campaign.RunWith(spec, coord)
	if err != nil {
		return nil, sched.Outcome{}, err
	}
	return report, coord.Outcome(), nil
}

// emitOutcome writes the scheduler outcome: JSON to the -dlq path ('-' =
// stdout) plus a stderr summary. Returns whether the DLQ is non-empty.
func emitOutcome(out sched.Outcome, path string) bool {
	fmt.Fprintf(os.Stderr, "fdcampaign: scheduler: %s\n", out.Stats)
	if path != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if path == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		} else {
			fmt.Fprintf(os.Stderr, "fdcampaign: wrote %s\n", path)
		}
	}
	for _, dl := range out.DLQ {
		fmt.Fprintf(os.Stderr, "fdcampaign: DLQ batch %d (%d instance(s), %s): %s\n",
			dl.Batch, len(dl.Instances), strings.Join(dl.Groups, " "), dl.Reason)
		for i, a := range dl.Attempts {
			fmt.Fprintf(os.Stderr, "  attempt %d on %s after %dms: %s\n", i+1, a.Worker, a.ElapsedMS, a.Err)
		}
	}
	return len(out.DLQ) > 0
}

// parseFaults parses the -faults spec: comma-separated entries of
// crash@K, stall@K, disconnect@K, corrupt@K, or corrupt-all.
func parseFaults(spec string) ([]faults.Behavior, error) {
	var stack []faults.Behavior
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if entry == "corrupt-all" {
			stack = append(stack, faults.CorruptAllResults())
			continue
		}
		kind, arg, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("fdcampaign: bad fault %q (want kind@K or corrupt-all)", entry)
		}
		k, err := strconv.Atoi(arg)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("fdcampaign: bad fault count in %q", entry)
		}
		switch kind {
		case "crash":
			stack = append(stack, faults.CrashAtBatch(k))
		case "stall":
			stack = append(stack, faults.StallAtBatch(k))
		case "disconnect":
			stack = append(stack, faults.DisconnectAtResult(k))
		case "corrupt":
			stack = append(stack, faults.CorruptResultAt(k))
		default:
			return nil, fmt.Errorf("fdcampaign: unknown fault kind %q", kind)
		}
	}
	if len(stack) == 0 {
		return nil, fmt.Errorf("fdcampaign: empty fault spec")
	}
	return stack, nil
}

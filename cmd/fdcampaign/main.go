// Command fdcampaign runs declarative scenario sweeps over the
// failure-discovery and agreement protocols: a Spec (JSON file or flags)
// names a grid over protocol × n × t × signature scheme × adversary mix
// × seed range, and the campaign engine executes the expanded instances
// on a sharded worker pool and aggregates the outcomes.
//
// The protocol vocabulary is the driver registry (internal/protocol):
// every registered driver — the five failure-discovery variants plus the
// fdba and sm agreement protocols — sweeps through the same grid,
// adversary strategies, setup-cache amortization, and conformance
// gating. -list-protocols prints the registry.
//
// Usage:
//
//	fdcampaign                             # built-in demo grid, all CPUs
//	fdcampaign -list-protocols             # registered drivers and their axes
//	fdcampaign -spec sweep.json            # load a spec document
//	fdcampaign -protocols chain,fdba,sm -sizes 4,7 -seeds 5
//	fdcampaign -workers 1 -json out.json   # reproducible machine output
//	fdcampaign -json -                     # JSON to stdout
//	fdcampaign -trace-out run.jsonl        # structured event trace (instance
//	                                       # spans; report bytes unchanged)
//
// Distributed mode splits the sweep across processes: a coordinator
// owns the spec and leases instance batches to workers over TCP
// (internal/sched). A worker is an agreement-service session
// (internal/service, fdserve's daemon) dialled out to the coordinator,
// whose only setup store is the daemon's warm pool. The coordinator
// survives worker crashes, stalls, and disconnects by requeueing with
// backoff and dead-lettering after a bounded retry budget. The report
// is byte-identical to a single-process run; exit status 3 means the
// sweep completed with a non-empty dead-letter queue (written via
// -dlq):
//
//	fdcampaign -coordinator :9000 -expect-workers 2 -json out.json -dlq dlq.json
//	fdcampaign -coordinator :9000 -debug-addr :9090  # live /debug/sched + pprof
//	fdcampaign -coordinator :9000 -trace-out sched.jsonl  # scheduler lifecycle trace
//	fdcampaign -worker localhost:9000                # as many as you like
//	fdcampaign -worker localhost:9000 -faults crash@2  # fault-injected worker
//
// SIGINT/SIGTERM drain gracefully: in-flight leases are parked in the
// DLQ and the partial report is still emitted.
//
// Adversaries are legacy alias names or composable strategy specs
// (selector:param,...  — see adversary.ParseStrategy). Because strategy
// specs use commas internally, multiple -adversaries entries separate on
// ";" when any strategy spec is present:
//
//	fdcampaign -adversaries none,crash-relay            # legacy list
//	fdcampaign -adversaries "none;coalition:size=2,behavior=equivocate,partition=even-odd;relay:behavior=delay,delay=2"
//
// Network conditions sweep as one more grid axis (-netcond, or the
// spec's netconds/netcond_specs fields): declarative latency, loss,
// reorder, bandwidth, scripted partitions, and honest-node
// crash/restart churn, compiled into the deterministic engines — same
// (seed, condition) always means the same report bytes. Conditions use
// commas internally, so several separate on ";":
//
//	fdcampaign -netcond "latency=uniform-0-2,loss=0.05"
//	fdcampaign -netcond "partition=even-odd@1-3;churn=2@2-4" -strict
//
// Degraded links void the paper's synchrony assumption N1, so predicate
// failures under them are recorded but excused (Verdict.NetExcused);
// churn-only conditions leave N1 intact and are scored in full. A
// per-instance watchdog (-inst-timeout) turns a livelocked instance
// into a fixed-string error instead of a hung sweep.
//
// Every completed instance is scored against the paper's conformance
// predicates (termination/agreement/validity, and complexity for an
// honest run on the ideal network; see campaign.Verdict); the
// table's "conform" column reports the per-group pass fraction and
// -strict exits with status 2 when any instance errors or records an
// unexcused violation — a campaign run is a property test over its grid.
//
// The aggregate output is byte-identical for any -workers value, and to
// a sweep that sets every instance up afresh — the determinism contracts
// the campaign tests and CI enforce. A local sweep owns one setup store
// that only changes how fast it runs: key material is a pure function of
// the spec's seed base, so a 1000-seed cell pays key generation and the
// authentication handshake once per sweep instead of once per seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/sig"
)

func main() {
	var df distFlags
	flag.StringVar(&df.coordinator, "coordinator", "", "run as campaign coordinator listening on this address; instances are leased to connected -worker processes")
	flag.StringVar(&df.worker, "worker", "", "run as campaign worker: an agreement-service session dialled out to the coordinator at this address, serving its leased batches (grid flags are ignored, the coordinator owns the spec; -inst-timeout and -trace-out apply)")
	flag.StringVar(&df.workerName, "worker-name", "", "worker name in the coordinator's attempt logs (default worker-<pid>)")
	flag.StringVar(&df.faultSpec, "faults", "", "worker-side fault injection for testing: comma-separated crash@K, stall@K, disconnect@K, corrupt@K, corrupt-all")
	flag.IntVar(&df.expect, "expect-workers", 1, "coordinator: delay dispatch until this many workers joined")
	flag.IntVar(&df.batch, "batch", 0, "coordinator: instances per lease (0 = default)")
	flag.DurationVar(&df.lease, "lease", 0, "coordinator: lease TTL before an unresponsive worker's batch is requeued (0 = default)")
	flag.IntVar(&df.retries, "retries", 0, "coordinator: attempts per batch before dead-lettering (0 = default)")
	flag.StringVar(&df.dlqPath, "dlq", "", "coordinator: write the scheduler outcome (stats + dead-letter queue) JSON to this path ('-' = stdout)")
	flag.StringVar(&df.debugAddr, "debug-addr", "", "coordinator: serve live telemetry over HTTP on this address (/debug/sched JSON snapshot, /debug/vars, /debug/pprof)")
	var (
		specPath    = flag.String("spec", "", "path to a JSON campaign spec (overrides the grid flags)")
		name        = flag.String("name", "fdcampaign", "campaign name used in reports")
		protocols   = flag.String("protocols", "chain,nonauth", "comma-separated protocol driver names (see -list-protocols)")
		listProtos  = flag.Bool("list-protocols", false, "print the registered protocol drivers and exit")
		sizes       = flag.String("sizes", "4,8,16", "comma-separated system sizes n")
		tols        = flag.String("tols", "", "comma-separated fault bounds t (empty = classical (n-1)/3 per size)")
		schemes     = flag.String("schemes", sig.SchemeEd25519, "comma-separated signature schemes")
		adversaries = flag.String("adversaries", "none,crash-relay", "adversary mixes: legacy names (none,crash-sender,crash-relay,equivocate) or strategy specs (coalition:size=2,behavior=equivocate); ';'-separated when specs are present")
		netconds    = flag.String("netcond", "", "network conditions (compact syntax, e.g. \"latency=uniform-0-2,loss=0.05\" or \"partition=even-odd@1-3\"); ';'-separated for several; empty = ideal network")
		instTimeout = flag.Duration("inst-timeout", 0, "per-instance watchdog: abandon an instance still running after this long and record it as an error (0 = off)")
		seedBase    = flag.Int64("seed-base", 19950530, "base seed of the deterministic seed range")
		seeds       = flag.Int("seeds", 10, "seeded repetitions per configuration")
		workers     = flag.Int("workers", 0, "worker shards (0 = one per CPU)")
		jsonOut     = flag.String("json", "", "write the machine-readable report to this path ('-' = stdout)")
		csv         = flag.Bool("csv", false, "render the summary table as CSV")
		strict      = flag.Bool("strict", false, "exit with status 2 when any instance violates a conformance predicate or errors")
		traceOut    = flag.String("trace-out", "", "write a structured JSONL event trace (instance spans, scheduler lifecycle) to this path; reports stay byte-identical either way")
	)
	flag.Parse()

	if *listProtos {
		listProtocols(os.Stdout)
		return
	}

	// SIGINT/SIGTERM cancel the context: a worker stops serving, a
	// coordinator drains in-flight leases to the DLQ and still emits a
	// valid partial report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var runOpts []campaign.Option
	if *instTimeout > 0 {
		runOpts = append(runOpts, campaign.WithInstanceTimeout(*instTimeout))
	}

	// The trace is a pure reader: enabling it cannot change a report
	// byte (the campaign invariance tests pin that), so it is safe to
	// leave on for any run. Worker and local modes trace their executors'
	// instance spans; coordinator mode traces the scheduler lifecycle.
	var rec *obs.Recorder
	if *traceOut != "" {
		sink, err := obs.CreateJSONL(*traceOut)
		if err != nil {
			fatal(err)
		}
		rec = obs.NewRecorder(sink)
	}
	df.observer = rec

	if df.worker != "" {
		code := runWorkerMode(ctx, df, runOpts)
		closeTrace(rec, *traceOut)
		os.Exit(code)
	}

	var (
		spec campaign.Spec
		err  error
	)
	if *specPath != "" {
		spec, err = campaign.LoadSpec(*specPath)
		if err != nil {
			fatal(err)
		}
	} else {
		spec = campaign.Spec{
			Name:        *name,
			Protocols:   splitList(*protocols),
			Sizes:       splitInts(*sizes),
			Tols:        splitInts(*tols),
			Schemes:     splitList(*schemes),
			Adversaries: campaign.SplitAdversaryList(*adversaries),
			NetConds:    campaign.SplitNetCondList(*netconds),
			SeedBase:    *seedBase,
			SeedCount:   *seeds,
		}
		if err := spec.Validate(); err != nil {
			fatal(err)
		}
	}

	instances, err := campaign.Expand(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fdcampaign: %d instances across %d protocols\n",
		len(instances), len(spec.Protocols))

	var (
		report  *campaign.Report
		outcome sched.Outcome
	)
	if df.coordinator != "" {
		report, outcome, err = runCoordinatorMode(ctx, df, spec)
	} else {
		report, err = campaign.Run(spec, *workers, append(runOpts, campaign.WithObserver(rec))...)
	}
	closeTrace(rec, *traceOut)
	if err != nil {
		fatal(err)
	}

	if *jsonOut != "" {
		data, err := report.CanonicalJSON()
		if err != nil {
			fatal(err)
		}
		if *jsonOut == "-" {
			os.Stdout.Write(data)
			return
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fdcampaign: wrote %s\n", *jsonOut)
	}
	if *jsonOut != "-" {
		if *csv {
			report.Table().RenderCSV(os.Stdout)
		} else {
			report.Table().Render(os.Stdout)
		}
	}
	deadLettered := false
	if df.coordinator != "" {
		deadLettered = emitOutcome(outcome, df.dlqPath)
	}
	violations, errored := report.Violations(), 0
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "fdcampaign: %d conformance violation(s):\n", violations)
	}
	for _, g := range report.Groups {
		errored += g.Errors // no verdict, so Violations skips them
		if len(g.Violations) > 0 {
			fmt.Fprintf(os.Stderr, "  %s: %s (%d/%d conformant)\n",
				g.Key, strings.Join(g.Violations, ","), g.Conformant, g.Instances-g.Errors)
		}
	}
	if *strict && violations+errored > 0 {
		fmt.Fprintf(os.Stderr, "fdcampaign: strict: %d violation(s), %d errored instance(s)\n", violations, errored)
		os.Exit(2)
	}
	// DLQ non-emptiness is an exit-status signal of its own: the sweep
	// COMPLETED, but not every instance executed.
	if deadLettered {
		os.Exit(3)
	}
}

// listProtocols renders the driver registry: one row per registered
// protocol with its declared scheme use (a signing protocol is also the
// one that runs over cached setup), equivocation support, and (n, t)
// axis constraints.
func listProtocols(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-9s %-11s %s\n",
		"protocol", "schemes", "equivocate", "axes")
	for _, d := range protocol.Drivers() {
		caps := d.Capabilities()
		schemes := "unsigned"
		if caps.UsesSignatures {
			schemes = "signed"
		}
		equivocate := "no"
		if caps.SupportsEquivocate {
			equivocate = "yes"
		}
		var axes []string
		if caps.RequiresSupermajority {
			axes = append(axes, "n>3t")
		}
		if caps.MaxN > 0 {
			axes = append(axes, fmt.Sprintf("n<=%d", caps.MaxN))
		}
		if len(axes) == 0 {
			axes = append(axes, "any t<n")
		}
		fmt.Fprintf(w, "%-12s %-9s %-11s %s\n",
			d.Name(), schemes, equivocate, strings.Join(axes, ", "))
	}
}

// closeTrace flushes and closes the -trace-out recorder (no-op when
// tracing is off) and reports where the trace went; a trace that could
// not be written exits 1.
func closeTrace(rec *obs.Recorder, path string) {
	if !rec.Enabled() {
		return
	}
	if err := rec.Close(); err != nil {
		fatal(fmt.Errorf("trace: %w", err))
	}
	fmt.Fprintf(os.Stderr, "fdcampaign: wrote trace %s\n", path)
}

// splitList parses a comma-separated list, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitInts parses a comma-separated integer list.
func splitInts(s string) []int {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			fatal(fmt.Errorf("fdcampaign: bad integer %q: %w", part, err))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fdcampaign: %v\n", err)
	os.Exit(1)
}

// Command fdserve is the agreement-as-a-service daemon: a long-lived
// server that multiplexes many concurrent agreement instances over
// shared framed connections, amortizing key generation and the
// authentication handshake across requests through a warm-cluster pool.
// Every other entry point in the repository is one-shot — set up, run a
// campaign or benchmark, exit; fdserve turns the same deterministic
// machinery into a service with tenancy, admission control, and
// graceful drain, while serving verdicts byte-identical to what a local
// campaign.Run would produce for the same (protocol, n, t, scheme,
// seed, keySeed) request.
//
// Server mode:
//
//	fdserve -addr :9100                         # serve agreement requests
//	fdserve -addr :9100 -shards 8 -queue 128    # executor shards, per-tenant queue bound
//	fdserve -addr :9100 -debug-addr :9190       # live /debug/serve + pprof
//	fdserve -addr :9100 -trace-out serve.jsonl  # per-request spans (obs JSONL)
//	fdserve -addr :9100 -stats-out stats.json   # final snapshot on shutdown
//
// SIGINT/SIGTERM drain gracefully: admission stops (new submits get
// "draining" rejections), queued instances run to completion and are
// answered, and the final stats snapshot — valid even mid-stream — is
// written to -stats-out before exit.
//
// Backpressure is explicit: each tenant has a bounded FIFO per executor
// shard, and a full queue answers with a busy rejection carrying a
// retry-after hint instead of buffering without bound. Tenants are
// served round-robin, so one flooding tenant cannot starve another.
//
// Client mode drives a server (CI smoke, load tests, ad-hoc requests):
//
//	fdserve -connect localhost:9100 -tenant alpha -protocol chain -n 8 -t 2 -seeds 100
//	fdserve -connect localhost:9100 -tenant beta -protocol fdba -scheme toy -conns 4 -strict
//	fdserve -connect localhost:9100 -tenant ops -stats   # just fetch the snapshot
//
// The client retries busy rejections after the server's hint, treats
// draining/bad-request as terminal, prints a JSON summary (served
// count, conformance, latency distribution), and with -strict exits 2
// when any verdict is non-conformant or errored.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sig"
	"repro/internal/transport"
)

func main() {
	var (
		addr       = flag.String("addr", "", "server mode: listen for agreement clients on this address")
		shards     = flag.Int("shards", 0, "server: executor shards, and warm setups parked per key set (0 = default 4)")
		queue      = flag.Int("queue", 0, "server: per-tenant FIFO bound per shard (0 = default 64)")
		retryAfter = flag.Duration("retry-after", 0, "server: backoff hint sent with busy rejections (0 = default 50ms)")
		debugAddr  = flag.String("debug-addr", "", "server: serve live telemetry over HTTP (/debug/serve snapshot, /debug/vars, /debug/pprof)")
		traceOut   = flag.String("trace-out", "", "server: write per-request spans as obs JSONL to this path")
		statsOut   = flag.String("stats-out", "", "server: write the final stats snapshot JSON here on graceful shutdown ('-' = stdout)")

		connect  = flag.String("connect", "", "client mode: drive the fdserve daemon at this address")
		tenant   = flag.String("tenant", "default", "client: tenant name for the connection handshake")
		protoN   = flag.String("protocol", "chain", "client: protocol driver name")
		n        = flag.Int("n", 4, "client: system size")
		t        = flag.Int("t", 1, "client: fault bound")
		scheme   = flag.String("scheme", sig.SchemeEd25519, "client: signature scheme (ignored by unsigned protocols)")
		value    = flag.String("value", "", "client: sender proposal override (empty = the protocol's canonical value)")
		seeds    = flag.Int("seeds", 1, "client: how many seeded requests to submit")
		seedBase = flag.Int64("seed-base", 1, "client: base of the seed range (KeySeed is always the base)")
		conns    = flag.Int("conns", 1, "client: concurrent connections splitting the seed range")
		stats    = flag.Bool("stats", false, "client: fetch and print the server snapshot after the requests (or alone with -seeds 0)")
		strict   = flag.Bool("strict", false, "client: exit 2 when any verdict is non-conformant or errored")
	)
	flag.Parse()

	switch {
	case *addr != "" && *connect != "":
		fatal(errors.New("-addr and -connect are mutually exclusive"))
	case *addr != "":
		os.Exit(serverMode(serverFlags{
			addr: *addr, shards: *shards, queue: *queue, retryAfter: *retryAfter,
			debugAddr: *debugAddr, traceOut: *traceOut, statsOut: *statsOut,
		}))
	case *connect != "":
		os.Exit(clientMode(clientFlags{
			connect: *connect, tenant: *tenant, protocol: *protoN,
			n: *n, t: *t, scheme: *scheme, value: *value,
			seeds: *seeds, seedBase: *seedBase, conns: *conns,
			stats: *stats, strict: *strict,
		}))
	default:
		fatal(errors.New("pass -addr to serve or -connect to drive a server (see -h)"))
	}
}

type serverFlags struct {
	addr       string
	shards     int
	queue      int
	retryAfter time.Duration
	debugAddr  string
	traceOut   string
	statsOut   string
}

func serverMode(f serverFlags) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var rec *obs.Recorder
	if f.traceOut != "" {
		sink, err := obs.CreateJSONL(f.traceOut)
		if err != nil {
			fatal(err)
		}
		rec = obs.NewRecorder(sink)
	}

	srv := service.NewServer(service.Config{
		Shards: f.shards, QueueDepth: f.queue, RetryAfter: f.retryAfter, Recorder: rec,
	})

	ln, err := transport.ListenConn(f.addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fdserve: serving agreement requests on %s\n", ln.Addr())

	if f.debugAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "fdserve: debug telemetry on http://%s/debug/serve\n", f.debugAddr)
			if err := http.ListenAndServe(f.debugAddr, srv.DebugMux()); err != nil {
				fmt.Fprintf(os.Stderr, "fdserve: debug server: %v\n", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "fdserve: draining (queued instances run to completion)...")
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdserve: accept: %v\n", err)
		}
	}
	ln.Close()
	snap := srv.Drain()
	fmt.Fprintf(os.Stderr, "fdserve: drained: %d served, %d rejected, %d errors across %d tenants\n",
		snap.Served, snap.Rejected, snap.Errors, len(snap.Tenants))

	if rec.Enabled() {
		if err := rec.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "fdserve: trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "fdserve: wrote trace %s\n", f.traceOut)
		}
	}
	if f.statsOut != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if f.statsOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(f.statsOut, data, 0o644); err != nil {
			fatal(err)
		} else {
			fmt.Fprintf(os.Stderr, "fdserve: wrote stats %s\n", f.statsOut)
		}
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fdserve: %v\n", err)
	os.Exit(1)
}

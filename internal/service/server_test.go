package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sig"
	"repro/internal/transport"
)

// startServer wires a server to an in-memory acceptor and returns a
// connected client for tenant.
func startServer(t *testing.T, cfg Config, tenant string) (*Server, *transport.PipeAcceptor, *Client) {
	t.Helper()
	srv := NewServer(cfg)
	acc := transport.NewPipeAcceptor()
	go srv.Serve(acc)
	t.Cleanup(func() { acc.Close() })
	cl := dialTenant(t, acc, tenant)
	return srv, acc, cl
}

func dialTenant(t *testing.T, acc *transport.PipeAcceptor, tenant string) *Client {
	t.Helper()
	conn, err := acc.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cl, err := NewClient(conn, tenant)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

func chainRequest(seed int64) Request {
	return Request{Protocol: campaign.ProtoChain, N: 4, T: 1, Scheme: sig.SchemeToy, Seed: seed, KeySeed: 1}
}

func TestServeBasic(t *testing.T) {
	srv, acc, alpha := startServer(t, Config{Shards: 2}, "alpha")
	beta := dialTenant(t, acc, "beta")

	for seed := int64(1); seed <= 3; seed++ {
		for _, cl := range []*Client{alpha, beta} {
			reply, err := cl.Do(chainRequest(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", cl.Tenant(), seed, err)
			}
			if reply.Result.Err != "" {
				t.Fatalf("%s seed %d errored: %s", cl.Tenant(), seed, reply.Result.Err)
			}
			if !reply.Result.Conformance.Conformant() {
				t.Fatalf("%s seed %d non-conformant: %+v", cl.Tenant(), seed, reply.Result.Conformance)
			}
			if reply.Source != "pool-hit" && reply.Source != "pool-miss" {
				t.Fatalf("source = %q", reply.Source)
			}
		}
	}

	snap, err := alpha.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if snap.Schema != StatsSchema {
		t.Fatalf("schema = %q", snap.Schema)
	}
	if snap.Served != 6 || snap.Submitted != 6 || snap.Rejected != 0 {
		t.Fatalf("snapshot counters = %+v", snap)
	}
	if len(snap.Tenants) != 2 || snap.Tenants[0].Tenant != "alpha" || snap.Tenants[1].Tenant != "beta" {
		t.Fatalf("tenants = %+v", snap.Tenants)
	}
	if snap.Tenants[0].Conformant != 3 || snap.Tenants[1].Conformant != 3 {
		t.Fatalf("conformant counts = %+v", snap.Tenants)
	}
	// 6 requests into one (protocol, scheme, n, t, keySeed) cell across 2
	// shards: at most 2 misses (one per executor), the rest amortized.
	if snap.Pool.Misses > 2 || snap.Pool.Hits < 4 {
		t.Fatalf("pool = %+v, want ≤2 misses", snap.Pool)
	}
	if snap.LatencyMS.Count != 6 || snap.LatencyMS.P99 <= 0 {
		t.Fatalf("latency dist = %+v", snap.LatencyMS)
	}
	_ = srv
}

// statsDropConn fails its first stats Send without writing a byte, as a
// write deadline that expires before the frame starts would; the link
// stays usable.
type statsDropConn struct {
	transport.Conn
	dropped atomic.Bool
}

func (c *statsDropConn) Send(frame []byte) error {
	if transport.FrameKind(frame) == KindStats && c.dropped.CompareAndSwap(false, true) {
		return errors.New("write deadline exceeded")
	}
	return c.Conn.Send(frame)
}

// A Stats call whose request never left must not leave its reply slot
// queued: the next call's reply would be routed to it, and that caller
// would block until the connection died.
func TestStatsSendFailureDoesNotStrandNextCall(t *testing.T) {
	srv := NewServer(Config{Shards: 1})
	acc := transport.NewPipeAcceptor()
	go srv.Serve(acc)
	defer acc.Close()
	conn, err := acc.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cl, err := NewClient(&statsDropConn{Conn: conn}, "alpha")
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Stats(); err == nil {
		t.Fatalf("first Stats succeeded through a failing Send")
	}
	got := make(chan error, 1)
	go func() {
		_, err := cl.Stats()
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("second Stats: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("second Stats never returned: its reply went to the failed call")
	}
}

// TestSnapshotNeverServesMoreThanSubmitted polls snapshots while three
// tenants keep requests in flight: a request is counted submitted before
// an executor can take it, so no snapshot — whole or per tenant — shows
// more served than submitted.
func TestSnapshotNeverServesMoreThanSubmitted(t *testing.T) {
	srv, acc, alpha := startServer(t, Config{Shards: 2}, "alpha")
	clients := []*Client{alpha, dialTenant(t, acc, "beta"), dialTenant(t, acc, "gamma")}
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for seed := int64(1); seed <= 100; seed++ {
				if _, err := cl.Do(chainRequest(seed)); err != nil {
					t.Errorf("%s seed %d: %v", cl.Tenant(), seed, err)
					return
				}
			}
		}(cl)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for polling := true; polling && !t.Failed(); {
		select {
		case <-done:
			polling = false // and look once more, at the final counts
		default:
		}
		snap := srv.Snapshot()
		if snap.Served > snap.Submitted {
			t.Errorf("snapshot shows %d served of %d submitted", snap.Served, snap.Submitted)
		}
		for _, tn := range snap.Tenants {
			if tn.Served > tn.Submitted {
				t.Errorf("snapshot shows tenant %s with %d served of %d submitted", tn.Tenant, tn.Served, tn.Submitted)
			}
		}
	}
	<-done
}

func TestBadRequestRejected(t *testing.T) {
	_, _, cl := startServer(t, Config{Shards: 1}, "alpha")
	cases := []Request{
		{Protocol: "no-such-protocol", N: 4, T: 1, Seed: 1},
		{Protocol: campaign.ProtoChain, N: 4, T: 4, Scheme: sig.SchemeToy, Seed: 1}, // t ≥ n
		{Protocol: campaign.ProtoChain, N: 4, T: 1, Scheme: "no-such-scheme", Seed: 1},
	}
	for i, req := range cases {
		_, err := cl.Do(req)
		var rej *RejectError
		if !errors.As(err, &rej) {
			t.Fatalf("case %d: err = %v, want RejectError", i, err)
		}
		if rej.Code != RejectBadRequest || rej.RetryAfter != 0 {
			t.Fatalf("case %d: reject = %+v", i, rej)
		}
	}
}

// waitSnapshot polls until the server's snapshot satisfies ok.
func waitSnapshot(t *testing.T, srv *Server, what string, ok func(Snapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ok(srv.Snapshot()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %s (snapshot now %+v)", what, srv.Snapshot())
}

// waitQueued polls until the server's queue depth reaches want.
func waitQueued(t *testing.T, srv *Server, want int64) {
	t.Helper()
	waitSnapshot(t, srv, fmt.Sprintf("queue depth %d", want), func(s Snapshot) bool { return s.Queued == want })
}

// Backpressure: with the executor gated shut, a tenant's queue fills to
// QueueDepth and the next submit gets an explicit busy rejection with a
// retry hint — never unbounded buffering. Another tenant's queue is
// independent.
func TestBackpressureRejectsBusy(t *testing.T) {
	srv := NewServer(Config{Shards: 1, QueueDepth: 2, RetryAfter: 25 * time.Millisecond})
	srv.execGate = make(chan struct{}) // executors block until released
	acc := transport.NewPipeAcceptor()
	go srv.Serve(acc)
	defer acc.Close()
	alpha := dialTenant(t, acc, "alpha")
	beta := dialTenant(t, acc, "beta")

	// One request in execution (gated), two queued.
	results := make(chan error, 3)
	for seed := int64(1); seed <= 3; seed++ {
		req := chainRequest(seed)
		go func() {
			_, err := alpha.Do(req)
			results <- err
		}()
		if seed == 1 {
			// Wait for it to be admitted and for the executor to pop it
			// so queue accounting below is deterministic (an empty
			// queue alone also describes a request still on the wire).
			waitSnapshot(t, srv, "request 1 admitted and popped", func(s Snapshot) bool {
				return s.Submitted >= 1 && s.Queued == 0
			})
		}
	}
	waitQueued(t, srv, 2)

	// Queue full: explicit rejection, not a hang.
	_, err := alpha.Do(chainRequest(4))
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectError", err)
	}
	if rej.Code != RejectBusy || rej.RetryAfter != 25*time.Millisecond {
		t.Fatalf("reject = %+v, want busy with 25ms hint", rej)
	}
	if !strings.Contains(rej.Msg, "alpha") {
		t.Fatalf("reject msg %q does not name the tenant", rej.Msg)
	}

	// Per-tenant bound: beta's queue is its own.
	betaDone := make(chan error, 1)
	go func() {
		_, err := beta.Do(chainRequest(5))
		betaDone <- err
	}()
	waitQueued(t, srv, 3)

	close(srv.execGate) // release the executors
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("gated request %d failed: %v", i, err)
		}
	}
	if err := <-betaDone; err != nil {
		t.Fatalf("beta request failed: %v", err)
	}
	snap := srv.Snapshot()
	if snap.Served != 4 || snap.Rejected != 1 {
		t.Fatalf("snapshot = served %d rejected %d, want 4/1", snap.Served, snap.Rejected)
	}
}

// Drain: queued work completes and is answered, new submits are
// rejected with the draining code, and the final snapshot is valid.
func TestDrainCompletesQueuedWork(t *testing.T) {
	srv := NewServer(Config{Shards: 1, QueueDepth: 8})
	srv.execGate = make(chan struct{})
	acc := transport.NewPipeAcceptor()
	go srv.Serve(acc)
	defer acc.Close()
	cl := dialTenant(t, acc, "alpha")

	results := make(chan error, 3)
	for seed := int64(1); seed <= 3; seed++ {
		req := chainRequest(seed)
		go func() {
			_, err := cl.Do(req)
			results <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Submitted < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	close(srv.execGate)
	snap := srv.Drain()
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request %d failed across drain: %v", i, err)
		}
	}
	if !snap.Draining || snap.Served != 3 || snap.Queued != 0 {
		t.Fatalf("drain snapshot = %+v, want draining with 3 served, 0 queued", snap)
	}

	// Post-drain submits are refused, not hung.
	_, err := cl.Do(chainRequest(9))
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Code != RejectDraining {
		t.Fatalf("post-drain err = %v, want draining rejection", err)
	}

	// Drain is idempotent.
	if again := srv.Drain(); again.Served != 3 {
		t.Fatalf("second drain = %+v", again)
	}
}

// The service emits one request span per served instance and reject
// points for refusals, through the shared obs layer.
func TestServiceObservability(t *testing.T) {
	sink := &obs.MemorySink{}
	rec := obs.NewRecorder(sink)
	_, _, cl := startServer(t, Config{Shards: 1, Recorder: rec}, "alpha")

	if _, err := cl.Do(chainRequest(1)); err != nil {
		t.Fatalf("do: %v", err)
	}
	if _, err := cl.Do(Request{Protocol: "nope", N: 4, T: 1, Seed: 1}); err == nil {
		t.Fatalf("bad request served")
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	spans := sink.Scoped("service.request")
	if len(spans) != 2 { // begin + end for the served request
		t.Fatalf("service.request events = %d, want 2", len(spans))
	}
	var sawEnd bool
	for _, e := range spans {
		if e.Kind == obs.KindEnd {
			sawEnd = true
			if !strings.Contains(e.Attrs, "conformant=true") || !strings.Contains(e.Attrs, "source=") {
				t.Fatalf("end attrs = %q", e.Attrs)
			}
		} else if !strings.Contains(e.Attrs, "tenant=alpha") {
			t.Fatalf("begin attrs = %q", e.Attrs)
		}
	}
	if !sawEnd {
		t.Fatalf("no end event for the request span")
	}
	if rejects := sink.Scoped("service.reject"); len(rejects) != 1 {
		t.Fatalf("service.reject points = %d, want 1", len(rejects))
	}
}

// Custom values thread end to end: a served request carrying a caller
// value produces exactly the result a local run with that value does.
func TestCustomValueRoundTrip(t *testing.T) {
	_, _, cl := startServer(t, Config{Shards: 1}, "alpha")
	req := chainRequest(1)
	req.Value = []byte{0x5a}
	reply, err := cl.Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if !reply.Result.Conformance.Conformant() {
		t.Fatalf("custom-value run non-conformant: %+v", reply.Result.Conformance)
	}
	local := campaign.RunInstance(campaign.Instance{
		Protocol: req.Protocol, N: req.N, T: req.T, Scheme: req.Scheme,
		Adversary: campaign.AdvNone, Seed: req.Seed, KeySeed: req.KeySeed,
		Value: req.Value,
	})
	if got, want := mustJSON(t, reply.Result), mustJSON(t, local); got != want {
		t.Fatalf("served custom-value result diverges from local run:\n got %s\nwant %s", got, want)
	}
	// And the value is load-bearing: dropping it changes the wire bytes.
	plain := campaign.RunInstance(campaign.Instance{
		Protocol: req.Protocol, N: req.N, T: req.T, Scheme: req.Scheme,
		Adversary: campaign.AdvNone, Seed: req.Seed, KeySeed: req.KeySeed,
	})
	if mustJSON(t, plain) == mustJSON(t, local) {
		t.Fatalf("custom value had no observable effect on the run")
	}
}

// A request for a tree no machine holds costs its sender an errored
// reply, not every tenant the daemon: eig at n=256 t=12 passes admission
// (MaxN and n > 3t are the only bounds there), and before ba bounded the
// tree in NewEIGNode it died in make — a fatal error, which the panic
// containment below cannot catch.
func TestOversizedEIGRequestErrors(t *testing.T) {
	srv, _, cl := startServer(t, Config{Shards: 1}, "alpha")
	for _, tolerated := range []int{12, 4} {
		reply, err := cl.Do(Request{Index: 9, Protocol: campaign.ProtoEIG, N: 256, T: tolerated, Seed: 1, KeySeed: 1})
		if err != nil {
			t.Fatalf("eig n=256 t=%d got no reply: %v", tolerated, err)
		}
		if !strings.Contains(reply.Result.Err, "leaf slots") || reply.Result.Conformance != nil {
			t.Fatalf("eig n=256 t=%d: result = %+v, want the tree-size error and no verdict", tolerated, reply.Result)
		}
	}
	good, err := cl.Do(Request{Protocol: campaign.ProtoEIG, N: 7, T: 2, Seed: 1, KeySeed: 1})
	if err != nil {
		t.Fatalf("request after the oversized ones: %v", err)
	}
	if good.Result.Err != "" || !good.Result.Conformance.Conformant() {
		t.Fatalf("request after the oversized ones = %+v", good.Result)
	}
	if snap := srv.Snapshot(); snap.Panics != 0 || snap.Errors != 2 || snap.Served != 3 {
		t.Fatalf("snapshot = panics %d errors %d served %d, want 0/2/3", snap.Panics, snap.Errors, snap.Served)
	}
}

// A panicking driver costs its own request an error, not the daemon its
// life: the client gets the fixed error string, the snapshot counts the
// panic, the interrupted setup is dropped rather than parked, and the
// next request is served as if nothing happened.
func TestDriverPanicContained(t *testing.T) {
	sink := &obs.MemorySink{}
	rec := obs.NewRecorder(sink)
	srv, _, cl := startServer(t, Config{Shards: 1, Recorder: rec}, "alpha")

	reply, err := cl.Do(Request{Index: 7, Protocol: "test-panic", N: 4, T: 1, Seed: 3, KeySeed: 1})
	if err != nil {
		t.Fatalf("panicking request got no reply: %v", err)
	}
	if reply.Result.Err != campaign.ErrDriverPanic || reply.Result.Conformance != nil {
		t.Fatalf("result = %+v, want Err %q and no verdict", reply.Result, campaign.ErrDriverPanic)
	}
	if reply.Result.Index != 7 || reply.Result.Seed != 3 {
		t.Fatalf("result lost its coordinates: %+v", reply.Result)
	}

	good, err := cl.Do(chainRequest(1))
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	if good.Result.Err != "" || !good.Result.Conformance.Conformant() {
		t.Fatalf("request after the panic = %+v", good.Result)
	}

	snap := srv.Snapshot()
	if snap.Panics != 1 || snap.Errors != 1 || snap.Served != 2 {
		t.Fatalf("snapshot = panics %d errors %d served %d, want 1/1/2", snap.Panics, snap.Errors, snap.Served)
	}
	// Two checkouts, both misses; only the chain request's setup parked.
	if snap.Pool.Misses != 2 || snap.Pool.Idle != 1 || snap.Pool.Cells != 1 {
		t.Fatalf("pool = %+v, want the panicked setup dropped", snap.Pool)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	points := sink.Scoped("service.panic")
	if len(points) != 1 || !strings.Contains(points[0].Attrs, "panic=driver bug") {
		t.Fatalf("service.panic points = %+v", points)
	}
}

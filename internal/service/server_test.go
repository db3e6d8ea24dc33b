package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/campaign"
	"repro/internal/netcond"
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
		for tenant, cl := range map[string]*Client{"alpha": alpha, "beta": beta} {
			reply, err := cl.Do(chainRequest(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", tenant, seed, err)
			}
			if reply.Result.Err != "" {
				t.Fatalf("%s seed %d errored: %s", tenant, seed, reply.Result.Err)
			}
			if !reply.Result.Conformance.Conformant() {
				t.Fatalf("%s seed %d non-conformant: %+v", tenant, seed, reply.Result.Conformance)
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
	clients := map[string]*Client{"alpha": alpha, "beta": dialTenant(t, acc, "beta"), "gamma": dialTenant(t, acc, "gamma")}
	var wg sync.WaitGroup
	for tenant, cl := range clients {
		wg.Add(1)
		go func(tenant string, cl *Client) {
			defer wg.Done()
			for seed := int64(1); seed <= 100; seed++ {
				if _, err := cl.Do(chainRequest(seed)); err != nil {
					t.Errorf("%s seed %d: %v", tenant, seed, err)
					return
				}
			}
		}(tenant, cl)
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
	crash := []adversary.BehaviorSpec{{Name: adversary.BehaviorCrash}}
	with := func(edit func(*Request)) Request {
		req := chainRequest(1)
		edit(&req)
		return req
	}
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"unknown protocol", Request{Protocol: "no-such-protocol", N: 4, T: 1, Seed: 1}},
		{"t ≥ n", with(func(r *Request) { r.T = 4 })},
		{"unknown scheme", with(func(r *Request) { r.Scheme = "no-such-scheme" })},
		{"unknown behaviour", with(func(r *Request) {
			r.Adversary = "bogus"
			r.Strategy = adversary.Strategy{Name: "bogus", Nodes: []int{1}, Behaviors: []adversary.BehaviorSpec{{Name: "no-such-behavior"}}}
		})},
		{"fixed node ≥ n", with(func(r *Request) {
			r.Adversary = "far"
			r.Strategy = adversary.Strategy{Name: "far", Nodes: []int{4}, Behaviors: crash}
		})},
		{"negative coalition", with(func(r *Request) {
			r.Adversary = "negative"
			r.Strategy = adversary.Strategy{Name: "negative", Coalition: -1, Behaviors: crash}
		})},
		{"churned node out of range", with(func(r *Request) {
			r.NetCond = "churn=9@2-4"
		})},
		{"churned node out of range, structured", with(func(r *Request) {
			r.NetCond = "churn"
			r.Net = &netcond.Spec{Name: "churn", Churn: []netcond.ChurnSpec{{Node: 4, Crash: 2, Restart: 4}}}
		})},
		{"unparseable adversary", with(func(r *Request) { r.Adversary = "coalition:size=" })},
		{"unparseable netcond", with(func(r *Request) { r.NetCond = "latency=warp-9" })},
		{"resign on an unsigned driver", with(func(r *Request) {
			r.Protocol, r.Scheme, r.Adversary = campaign.ProtoNonAuth, "", "relay:behavior=resign"
		})},
		{"a setup attack on an unsigned driver", with(func(r *Request) {
			r.Protocol, r.Scheme, r.Adversary = campaign.ProtoEIG, "", "relay:setup=silent"
		})},
		{"a setup attack over a coalition", with(func(r *Request) { r.Adversary = "coalition:setup=equivocate-keys" })},
	} {
		_, err := cl.Do(tc.req)
		var rej *RejectError
		if !errors.As(err, &rej) {
			t.Fatalf("%s: err = %v, want RejectError", tc.name, err)
		}
		if rej.Code != RejectBadRequest || rej.RetryAfter != 0 {
			t.Fatalf("%s: reject = %+v", tc.name, rej)
		}
		if rej.Msg == "" {
			t.Fatalf("%s: rejected without a reason", tc.name)
		}
		t.Logf("%s: %s", tc.name, rej.Msg)
	}
	// The session outlives its rejections: the next request is served.
	if reply, err := cl.Do(chainRequest(2)); err != nil || reply.Result.Err != "" {
		t.Fatalf("request after the rejections: err %v, reply %+v", err, reply)
	}
}

// A shard holds a tenant exactly while it has queued work: 10,000
// one-shot tenants drain out of the ring and the map, and round-robin
// order survives tenants leaving and coming back.
func TestDrainedTenantsLeaveTheShard(t *testing.T) {
	sh := newShard(4)
	stats := newServerStats()
	push := func(tenant string, reqID int) {
		t.Helper()
		if got := sh.enqueue(tenant, task{reqID: reqID, insts: make([]campaign.Instance, 1)}, stats); got != enqueueOK {
			t.Fatalf("enqueue %s/%d = %d", tenant, reqID, got)
		}
	}
	popAll := func(n int) []int {
		t.Helper()
		var order []int
		for i := 0; i < n; i++ {
			tk, ok := sh.pop()
			if !ok {
				t.Fatalf("pop %d of %d: shard empty", i, n)
			}
			order = append(order, tk.reqID)
		}
		return order
	}
	const tenants = 10_000
	for i := 0; i < tenants; i++ {
		push(fmt.Sprintf("one-shot-%d", i), i)
	}
	for i, id := range popAll(tenants) {
		if id != i {
			t.Fatalf("pop %d served request %d, want arrival order", i, id)
		}
	}
	if len(sh.ring) != 0 || len(sh.queues) != 0 || sh.next != 0 {
		t.Fatalf("drained shard keeps ring %d, queues %d, cursor %d", len(sh.ring), len(sh.queues), sh.next)
	}

	// a has three, b two, c one: one each per turn. c leaves when it
	// drains and comes back at the end of the ring, after b.
	push("a", 1)
	push("a", 2)
	push("a", 3)
	push("b", 4)
	push("b", 5)
	push("c", 6)
	got := popAll(4) // a1 b4 c6 a2: c drains and leaves
	push("c", 7)
	got = append(got, popAll(3)...) // b5 c7 a3
	if want := []int{1, 4, 6, 2, 5, 7, 3}; !slices.Equal(got, want) {
		t.Fatalf("round-robin order = %v, want %v", got, want)
	}
	if len(sh.ring) != 0 || len(sh.queues) != 0 {
		t.Fatalf("drained shard keeps ring %v, queues %d", sh.ring, len(sh.queues))
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

// TestRecorderReachesTheExecutor: Config.Recorder is the executor's
// observer too, so a traced server records one campaign.instance span per
// served instance, and its replies are the untraced server's byte for
// byte (timings aside).
func TestRecorderReachesTheExecutor(t *testing.T) {
	reqs := []Request{chainRequest(1), chainRequest(2),
		{Protocol: campaign.ProtoNonAuth, N: 4, T: 1, Adversary: campaign.AdvCrashRelay, Seed: 3},
		{Protocol: campaign.ProtoFDBA, N: 4, T: 1, Scheme: sig.SchemeToy, Adversary: campaign.AdvCrashRelay, Seed: 4, KeySeed: 1},
		{Protocol: campaign.ProtoEIG, N: 4, T: 1, Seed: 5}}
	serve := func(rec *obs.Recorder) []string {
		_, _, cl := startServer(t, Config{Shards: 2, Recorder: rec}, "alpha")
		var out []string
		for _, req := range reqs {
			reply, err := cl.Do(req)
			if err != nil {
				t.Fatalf("do %s: %v", req.Protocol, err)
			}
			out = append(out, mustJSON(t, reply.Result)+" "+reply.Source)
		}
		return out
	}
	sink := &obs.MemorySink{}
	rec := obs.NewRecorder(sink)
	traced, bare := serve(rec), serve(nil)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(traced, bare) {
		t.Errorf("traced replies differ from untraced ones:\n%s\n%s", strings.Join(traced, "\n"), strings.Join(bare, "\n"))
	}
	ended := 0
	for _, e := range sink.Scoped("campaign.instance") {
		if e.Kind == obs.KindEnd {
			ended++
		}
	}
	if ended != len(reqs) {
		t.Errorf("%d campaign.instance spans for %d served instances", ended, len(reqs))
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
// panic and a trace point names its instance, the interrupted setup is
// dropped rather than parked, and the next request is served as if
// nothing happened.
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
	if len(points) != 1 || !strings.Contains(points[0].Attrs, "protocol=test-panic") {
		t.Fatalf("service.panic points = %+v", points)
	}
}

// Package service is the agreement-as-a-service layer: a long-lived
// daemon (cmd/fdserve is the CLI) that multiplexes many concurrent
// agreement instances over shared framed connections, instead of the
// one-shot set-up-run-exit shape every other entry point has. It is the
// one long-lived executor: a campaign worker is a session it dials out
// to the coordinator (ServeDialled). The moving parts:
//
//   - a checksummed request/response wire protocol over transport.Conn
//     (wire.go): a request is any campaign.Instance, admitted by
//     Instance.Validate and answered with a verdict/latency reply; a
//     batch of them is answered with their results in order, with
//     heartbeats while it waits or runs;
//   - a warm-cluster pool (pool.go), pooled per key set (scheme, n,
//     keySeed), at most 64 key sets, least recently used evicted, so a
//     sustained request stream pays keygen and the authentication
//     handshake once per key set, whichever protocol and t ride on it;
//   - instance-ID-sharded executors with bounded per-tenant FIFO queues
//     and round-robin tenant service, so one flooding tenant can
//     neither starve another nor buffer without bound — the full queue
//     answers with an explicit RETRY-AFTER rejection;
//   - graceful drain: admission stops, queued work finishes, and the
//     final stats snapshot (stats.go) is still valid mid-stream.
//
// Served verdicts are byte-identical to one-shot campaign.Run results
// for the same instances, request by request and batch by batch — the
// differential tests pin that over the golden wiring grid.
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - Server.reject, serverStats.rejected, DecodeReject, RejectError.Error: the backpressure and bad-batch paths TestBackpressureRejectsBusy and TestRejectedBatchIsAFailedAttempt fire.
//   - Client.Stats, Server.DebugMux: fdserve -stats and -debug-addr, which no smoke passes.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sig"
	"repro/internal/transport"
)

// Request is one agreement request, a submit frame's JSON payload: any
// campaign instance, adversary and network condition included. resolve
// normalises its scheme and adversary. The tenant is connection state
// (from the hello), not per-request.
type Request = campaign.Instance

// Reply is one served request's response payload: the full campaign
// result (verdict, conformance, traffic) plus the service-side latency
// split and where the setup came from ("pool-hit", "pool-miss", or
// "none" for unsigned drivers, which have no setup to pool).
type Reply struct {
	Result  campaign.Result `json:"result"`
	QueueNS int64           `json:"queue_ns"`
	RunNS   int64           `json:"run_ns"`
	Source  string          `json:"source"`
}

// Config tunes a Server; the zero value serves with the documented
// defaults.
type Config struct {
	// Shards is the executor count; requests are sharded by instance ID
	// (default 4). It is also the number of warm setups the pool may
	// park per key set: no more executors than that can hold one key
	// set's at once.
	Shards int
	// QueueDepth bounds each tenant's FIFO on each shard (default 64).
	// A full queue rejects with RETRY-AFTER instead of buffering.
	QueueDepth int
	// RetryAfter is the backoff hint sent with busy rejections
	// (default 50ms).
	RetryAfter time.Duration
	// Recorder receives per-request "service.request" spans,
	// reject/panic/drain points and, through the executor, one
	// "campaign.instance" span per served instance; nil disables tracing
	// (the default).
	Recorder *obs.Recorder
	// Options configure the campaign.Executor every instance runs on
	// (the watchdog). The executor holds no setup store: a signing run's
	// store is its pool cell, the only one the daemon builds. Recorder,
	// not an option here, is the executor's observer.
	Options []campaign.Option
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	return c
}

// session is one connection's state.
type session struct {
	conn   transport.Conn
	tenant string
}

// task is one admitted submission queued for execution: a request (one
// instance, answered with a Reply) or a batch (its instances run in
// order and are answered together, heartbeats flowing meanwhile).
type task struct {
	sess     *session
	reqID    int
	insts    []campaign.Instance
	spans    []obs.Span    // one per instance when tracing
	beat     chan struct{} // a batch's: closing it stops the heartbeats
	enqueued time.Time
}

// enqueue outcomes.
const (
	enqueueOK = iota
	enqueueFull
	enqueueStopped
)

// shard is one executor: a map of bounded per-tenant FIFO queues served
// round-robin, so tenants progress fairly regardless of who floods. A
// tenant is on the ring and in the map exactly while its queue is
// non-empty, so one-shot tenants leave nothing behind.
type shard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]task
	ring    []string // tenants with queued work, in arrival order
	next    int      // round-robin cursor into ring
	pending int
	stopped bool
	depth   int
}

func newShard(depth int) *shard {
	sh := &shard{queues: make(map[string][]task), depth: depth}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

func (sh *shard) enqueue(tenant string, t task, stats *serverStats) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped {
		return enqueueStopped
	}
	q := sh.queues[tenant]
	if len(q) >= sh.depth {
		return enqueueFull
	}
	if len(q) == 0 {
		sh.ring = append(sh.ring, tenant)
	}
	sh.queues[tenant] = append(q, t)
	sh.pending++
	// Counted before an executor can pop the task, so no snapshot shows
	// more served than submitted (TestSnapshotNeverServesMoreThanSubmitted).
	stats.submitted(tenant, len(t.insts))
	sh.cond.Signal()
	return enqueueOK
}

// pop returns the next task round-robin across tenants, blocking until
// one is queued; ok is false when the shard is stopped and fully
// drained.
func (sh *shard) pop() (task, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sh.pending == 0 && !sh.stopped {
		sh.cond.Wait()
	}
	if sh.pending == 0 {
		return task{}, false
	}
	tenant := sh.ring[sh.next]
	q := sh.queues[tenant]
	t := q[0]
	sh.pending--
	if len(q) == 1 {
		// Drained: the tenant leaves, and the cursor already names the
		// tenant after it.
		delete(sh.queues, tenant)
		sh.ring = slices.Delete(sh.ring, sh.next, sh.next+1)
	} else {
		sh.queues[tenant] = q[1:]
		sh.next++
	}
	if sh.next >= len(sh.ring) {
		sh.next = 0
	}
	return t, true
}

func (sh *shard) stop() {
	sh.mu.Lock()
	sh.stopped = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

func (sh *shard) queued() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pending
}

// Server is the multiplexed agreement daemon. Construct with NewServer,
// feed it connections with Serve (ServeDialled for one it dialled out),
// and shut down with Drain.
type Server struct {
	cfg      Config
	rec      *obs.Recorder
	exec     *campaign.Executor
	pool     *pool
	stats    *serverStats
	shards   []*shard
	nextInst atomic.Int64
	draining atomic.Bool
	panics   atomic.Int64
	wg       sync.WaitGroup // shard executors

	// execGate, when non-nil, makes every executor receive a token
	// before running a task — an in-package test hook that makes queue
	// backpressure and fairness deterministic to observe.
	execGate chan struct{}
}

// NewServer builds and starts a server's executor shards. The server
// accepts work immediately; it runs until Drain.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		rec:   cfg.Recorder,
		exec:  campaign.NewExecutor(append(slices.Clip(cfg.Options), campaign.WithObserver(cfg.Recorder))...),
		pool:  newPool(cfg.Shards),
		stats: newServerStats(),
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(cfg.QueueDepth)
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				t, ok := sh.pop()
				if !ok {
					return
				}
				s.run(t)
			}
		}()
	}
	return s
}

// Serve accepts connections until the acceptor closes (returns nil) or
// fails (returns the error). Each connection is handled on its own
// goroutine; many Serve calls may feed one server.
func (s *Server) Serve(acc transport.Acceptor) error {
	for {
		conn, err := acc.Accept()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		go s.handleConn(conn)
	}
}

// handleConn speaks the wire protocol on one accepted connection:
// hello/ack, then the session's frames until the link closes.
func (s *Server) handleConn(conn transport.Conn) {
	defer conn.Close()
	frame, err := conn.Recv()
	if err != nil {
		return
	}
	tenant, err := transport.DecodeHello(frame, KindHello, WireTag)
	if err != nil {
		return
	}
	if err := conn.Send(encodeHelloAck(len(s.shards))); err != nil {
		return
	}
	s.serveFrames(&session{conn: conn, tenant: tenant})
}

// ServeDialled serves a connection this server dialled out, to a
// campaign coordinator: it says hello as name (the tenant), then
// answers frames as on an accepted connection. It returns nil when the
// peer closes the link, ctx's error when ctx ends it, and otherwise
// why the link failed; admitted work still runs (Drain waits for it).
func (s *Server) ServeDialled(ctx context.Context, conn transport.Conn, name string) error {
	defer conn.Close()
	if err := conn.Send(transport.EncodeHello(KindHello, WireTag, name)); err != nil {
		return fmt.Errorf("service: hello: %w", err)
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	err := s.serveFrames(&session{conn: conn, tenant: name})
	switch {
	case ctx.Err() != nil:
		return ctx.Err()
	case errors.Is(err, transport.ErrClosed):
		return nil
	}
	return err
}

// serveFrames answers a session's submit, batch and stats frames until
// the link closes or carries a frame that fails to decode or checksum —
// a link that corrupts bytes cannot be trusted with verdicts — and
// returns why it stopped.
func (s *Server) serveFrames(sess *session) error {
	for {
		frame, err := sess.conn.Recv()
		if err != nil {
			return err
		}
		switch kind := transport.FrameKind(frame); kind {
		case KindSubmit:
			reqID, payload, err := transport.DecodePayload(frame, KindSubmit, "service submit")
			if err != nil {
				return err
			}
			s.admit(sess, reqID, payload, false, 0)
		case KindBatch:
			var deadlineMS int
			reqID, payload, err := transport.DecodePayload(frame, KindBatch, "service batch", &deadlineMS)
			if err != nil {
				return err
			}
			s.admit(sess, reqID, payload, true, time.Duration(deadlineMS)*time.Millisecond)
		case KindStats:
			data, err := json.Marshal(s.Snapshot())
			if err != nil {
				return err
			}
			if err := sess.conn.Send(transport.EncodePayload(KindStatsReply, 0, data)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("service: unexpected frame kind %d", kind)
		}
	}
}

// admit decodes a submitted request or batch, admits every instance it
// carries (a batch is refused whole if one fails) and queues them on one
// shard as one task, or answers with the matching rejection. Admission
// control is explicit: the only unbounded thing in this server is the
// request stream itself.
func (s *Server) admit(sess *session, reqID int, payload []byte, batch bool, deadline time.Duration) {
	var insts []campaign.Instance
	var err error
	if batch {
		if err = json.Unmarshal(payload, &insts); err == nil && len(insts) == 0 {
			err = errors.New("empty batch")
		}
	} else {
		insts = make([]campaign.Instance, 1)
		err = json.Unmarshal(payload, &insts[0])
	}
	if err != nil {
		s.reject(sess, reqID, RejectBadRequest, 0, "bad request payload: "+err.Error())
		return
	}
	if s.draining.Load() {
		s.reject(sess, reqID, RejectDraining, 0, "server is draining")
		return
	}
	for i := range insts {
		if err := resolve(&insts[i]); err != nil {
			msg := err.Error()
			if batch {
				msg = fmt.Sprintf("batch member %d: %s", i, msg)
			}
			s.reject(sess, reqID, RejectBadRequest, 0, msg)
			return
		}
	}
	instID := s.nextInst.Add(1)
	sh := s.shards[int(instID%int64(len(s.shards)))]
	t := task{sess: sess, reqID: reqID, insts: insts, enqueued: time.Now()}
	if s.rec.Enabled() {
		t.spans = make([]obs.Span, len(insts))
		for i, inst := range insts {
			t.spans[i] = s.rec.Begin(obs.Event{
				Scope: "service.request", Inst: int(instID), Proto: inst.Protocol, Node: -1,
				Attrs: obs.Attrs("tenant", sess.tenant, "n", inst.N, "t", inst.T, "seed", inst.Seed),
			})
		}
	}
	if batch {
		t.beat = make(chan struct{})
		go heartbeat(sess.conn, reqID, deadline, t.beat)
	}
	code, retryAfter, msg := RejectDraining, time.Duration(0), "server is draining"
	switch sh.enqueue(sess.tenant, t, s.stats) {
	case enqueueOK:
		return
	case enqueueFull:
		code, retryAfter = RejectBusy, s.cfg.RetryAfter
		msg = fmt.Sprintf("tenant %s queue full on shard %d", sess.tenant, instID%int64(len(s.shards)))
	}
	if batch {
		close(t.beat)
	}
	for _, span := range t.spans {
		span.End(obs.Attrs("rejected", code))
	}
	s.reject(sess, reqID, code, retryAfter, msg)
}

// resolve normalises an instance in place and admits it by campaign's
// own check. An empty Scheme is sig.SchemeEd25519 (the core default)
// for a signing driver, so both spellings share a pool cell, and an
// unsigned driver's is forced empty: after resolve a Scheme marks
// exactly the runs that take a pool cell. An empty Adversary is the
// honest run. The adversary is parsed here, once: the pool key
// (protocol.KeyOf) and the run read the parsed strategy.
func resolve(inst *campaign.Instance) error {
	drv, err := protocol.Lookup(inst.Protocol)
	if err != nil {
		return err
	}
	switch {
	case !drv.Capabilities().UsesSignatures:
		inst.Scheme = ""
	case inst.Scheme == "":
		inst.Scheme = sig.SchemeEd25519
	}
	if inst.Adversary == "" {
		inst.Adversary = campaign.AdvNone
	}
	if err := inst.ResolveStrategy(); err != nil {
		return err
	}
	return inst.Validate()
}

func (s *Server) reject(sess *session, reqID int, code string, retryAfter time.Duration, msg string) {
	s.stats.rejected(sess.tenant)
	if s.rec.Enabled() {
		s.rec.Point("service.reject", obs.Attrs("tenant", sess.tenant, "code", code))
	}
	// A send failure means the client is gone; nothing to do.
	_ = sess.conn.Send(encodeReject(reqID, code, int(retryAfter.Milliseconds()), msg))
}

// heartbeat tells the client that batch id is still queued or running,
// every deadline/3 but at least 5ms apart, until stop closes or a send
// fails.
func heartbeat(conn transport.Conn, id int, deadline time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(max(deadline/3, 5*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if conn.Send(transport.EncodePayload(KindHeartbeat, id, nil)) != nil {
				return
			}
		case <-stop:
			return
		}
	}
}

// run executes one task on its executor shard and answers it: a
// request with its Reply, a batch with its results in batch order once
// the last member has run.
func (s *Server) run(t task) {
	if s.execGate != nil {
		<-s.execGate
	}
	var answer any
	if t.beat == nil {
		answer = s.execute(t, 0)
	} else {
		results := make([]campaign.Result, len(t.insts))
		for i := range t.insts {
			results[i] = s.execute(t, i).Result
		}
		close(t.beat)
		answer = results
	}
	payload, _ := json.Marshal(answer) // plain data: cannot fail
	// A send failure means the client went away mid-request; the run
	// still counts (the work was done).
	_ = t.sess.conn.Send(transport.EncodePayload(KindResult, t.reqID, payload))
}

// execute runs the task's i-th instance, the one path every served
// instance takes: check a warm setup out of the pool (signing drivers),
// run it on the server's executor through the exact campaign
// result/conformance path, check the setup back in, and count it.
func (s *Server) execute(t task, i int) Reply {
	inst := t.insts[i]
	queueWait := time.Since(t.enqueued)
	source := "none"
	var sc *protocol.SetupCache
	key := protocol.KeyOf(protocol.Instance{Scheme: inst.Scheme, N: inst.N, KeySeed: inst.KeySeed, Strategy: inst.Strategy})
	cacheable := inst.Scheme != ""
	if cacheable {
		var warm bool
		sc, warm = s.pool.checkout(key)
		if warm {
			source = "pool-hit"
		} else {
			source = "pool-miss"
		}
	}
	runStart := time.Now()
	res := s.exec.RunWith(inst, sc)
	runDur := time.Since(runStart)
	if res.Err == campaign.ErrDriverPanic {
		// The driver panicked (the campaign layer contained it): count
		// it, and drop the setup it interrupted — its state is unknown —
		// so the next checkout rebuilds from seeds.
		s.panics.Add(1)
		if s.rec.Enabled() {
			s.rec.Point("service.panic", obs.Attrs("protocol", inst.Protocol,
				"n", inst.N, "t", inst.T, "seed", inst.Seed))
		}
	} else if cacheable {
		s.pool.checkin(key, sc)
	}
	// Counted and its span ended before the reply leaves, so a client
	// holding its reply finds it in the very next snapshot and trace
	// flush; latency therefore runs from admission to the reply being
	// ready to send.
	conformant := res.Err == "" && res.Conformance != nil && res.Conformance.Conformant()
	s.stats.served(t.sess.tenant, res.Err != "", conformant, time.Since(t.enqueued), queueWait)
	if t.spans != nil {
		t.spans[i].End(obs.Attrs("conformant", conformant, "source", source,
			"queue_ns", queueWait.Nanoseconds(), "run_ns", runDur.Nanoseconds(), "errored", res.Err != ""))
	}
	return Reply{Result: res, QueueNS: queueWait.Nanoseconds(), RunNS: runDur.Nanoseconds(), Source: source}
}

// Drain gracefully shuts the server down: admission stops (new submits
// are rejected with RejectDraining), every queued task runs to
// completion and is answered, and the final snapshot is returned —
// valid even when clients were mid-stream (the CI smoke pins that).
// Connections stay open; callers close their acceptor/listener and
// exit. Drain is idempotent.
func (s *Server) Drain() Snapshot {
	if s.draining.CompareAndSwap(false, true) {
		for _, sh := range s.shards {
			sh.stop()
		}
	}
	s.wg.Wait()
	if s.rec.Enabled() {
		s.rec.Point("service.drain", obs.Attrs("served", s.Snapshot().Served))
	}
	return s.Snapshot()
}

// Snapshot builds the live stats view; safe from any goroutine.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		Schema:    StatsSchema,
		UpdatedAt: time.Now().UTC(),
		Draining:  s.draining.Load(),
		Shards:    len(s.shards),
		Panics:    s.panics.Load(),
		Pool:      s.pool.snapshot(),
	}
	for _, sh := range s.shards {
		snap.Queued += int64(sh.queued())
	}
	s.stats.fill(&snap)
	return snap
}

// Package service is the agreement-as-a-service layer: a long-lived
// daemon (cmd/fdserve is the CLI) that multiplexes many concurrent
// agreement instances over shared framed connections, instead of the
// one-shot set-up-run-exit shape every other entry point has. The
// moving parts:
//
//   - a checksummed request/response wire protocol over transport.Conn
//     (wire.go), carrying (tenant, protocol, n, t, scheme, value, seed)
//     requests and verdict/latency replies;
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
// for the same instances — the warm-pool-vs-fresh differential test
// pins that, exactly as the campaign setup cache's differential does.
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - Server.reject, serverStats.rejected, decodeReject, RejectError.Error: the backpressure path TestBackpressureRejectsBusy fires.
//   - Client.Stats, Server.DebugMux: fdserve -stats and -debug-addr, which no smoke passes.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sig"
	"repro/internal/transport"
)

// Request is one agreement request as carried in a submit frame's JSON
// payload. The tenant is connection state (from the hello), not
// per-request.
type Request struct {
	// Index is echoed into Result.Index — clients correlating served
	// results with a campaign expansion set it to the instance's index.
	Index int `json:"index"`
	// Protocol is a registered driver name.
	Protocol string `json:"protocol"`
	// N and T are the system size and fault bound.
	N int `json:"n"`
	T int `json:"t"`
	// Scheme is the signature-scheme registry name; empty means
	// sig.SchemeEd25519 (the core default) for signing drivers, so both
	// spellings share one pool cell, and is forced empty for unsigned
	// ones.
	Scheme string `json:"scheme,omitempty"`
	// Value optionally overrides the protocol's canonical sender
	// proposal.
	Value []byte `json:"value,omitempty"`
	// Seed drives the run's randomness; KeySeed pins its key material
	// (requests sharing (Scheme, N, KeySeed) share a warm pool cell).
	Seed    int64 `json:"seed"`
	KeySeed int64 `json:"key_seed"`
}

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
	// Recorder receives per-request "service.request" spans and
	// reject/panic/drain points; nil disables tracing (the default).
	Recorder *obs.Recorder
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

// session is one client connection's state.
type session struct {
	conn   transport.Conn
	tenant string
}

// task is one admitted request queued for execution.
type task struct {
	sess      *session
	reqID     int
	inst      campaign.Instance
	cacheable bool
	enqueued  time.Time
	span      obs.Span
}

// enqueue outcomes.
const (
	enqueueOK = iota
	enqueueFull
	enqueueStopped
)

// shard is one executor: a map of bounded per-tenant FIFO queues served
// round-robin, so tenants progress fairly regardless of who floods.
type shard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]task
	ring    []string // tenant rotation, first-appearance order
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
	if q == nil {
		sh.ring = append(sh.ring, tenant)
	}
	sh.queues[tenant] = append(q, t)
	sh.pending++
	// Counted before an executor can pop the task, so no snapshot shows
	// more served than submitted (TestSnapshotNeverServesMoreThanSubmitted).
	stats.submitted(tenant)
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
	for i := 0; i < len(sh.ring); i++ {
		tenant := sh.ring[(sh.next+i)%len(sh.ring)]
		q := sh.queues[tenant]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		sh.queues[tenant] = q[1:]
		sh.pending--
		sh.next = (sh.next + i + 1) % len(sh.ring)
		return t, true
	}
	// Unreachable: pending > 0 implies a non-empty queue.
	panic("service: shard pending count out of sync")
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
// feed it connections with Serve (or Attach for a single in-memory
// conn), and shut down with Drain.
type Server struct {
	cfg      Config
	rec      *obs.Recorder
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
				s.execute(t)
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
		s.Attach(conn)
	}
}

// Attach adopts one established connection (the in-memory test path).
func (s *Server) Attach(conn transport.Conn) {
	go s.handleConn(conn)
}

// handleConn speaks the wire protocol on one connection: hello/ack,
// then submit and stats frames until the link closes. A frame that
// fails to decode or checksum closes the connection — a link that
// corrupts bytes cannot be trusted with verdicts.
func (s *Server) handleConn(conn transport.Conn) {
	defer conn.Close()
	frame, err := conn.Recv()
	if err != nil {
		return
	}
	tenant, err := transport.DecodeHello(frame, KindHello, wireTag)
	if err != nil {
		return
	}
	if err := conn.Send(encodeHelloAck(len(s.shards))); err != nil {
		return
	}
	sess := &session{conn: conn, tenant: tenant}
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		switch transport.FrameKind(frame) {
		case KindSubmit:
			reqID, payload, err := transport.DecodePayload(frame, KindSubmit, "service submit")
			if err != nil {
				return
			}
			s.admit(sess, reqID, payload)
		case KindStats:
			data, err := json.Marshal(s.Snapshot())
			if err != nil {
				return
			}
			if err := conn.Send(transport.EncodePayload(KindStatsReply, 0, data)); err != nil {
				return
			}
		default:
			return
		}
	}
}

// admit validates one submitted request and queues it on its shard, or
// answers with the matching rejection. Admission control is explicit:
// the only unbounded thing in this server is the request stream itself.
func (s *Server) admit(sess *session, reqID int, payload []byte) {
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		s.reject(sess, reqID, RejectBadRequest, 0, "bad request payload: "+err.Error())
		return
	}
	if s.draining.Load() {
		s.reject(sess, reqID, RejectDraining, 0, "server is draining")
		return
	}
	inst, cacheable, err := s.resolve(req)
	if err != nil {
		s.reject(sess, reqID, RejectBadRequest, 0, err.Error())
		return
	}
	instID := s.nextInst.Add(1)
	sh := s.shards[int(instID%int64(len(s.shards)))]
	t := task{sess: sess, reqID: reqID, inst: inst, cacheable: cacheable, enqueued: time.Now()}
	if s.rec.Enabled() {
		t.span = s.rec.Begin(obs.Event{
			Scope: "service.request", Inst: int(instID), Proto: req.Protocol, Node: -1,
			Attrs: obs.Attrs("tenant", sess.tenant, "n", req.N, "t", req.T, "seed", req.Seed),
		})
	}
	switch sh.enqueue(sess.tenant, t, s.stats) {
	case enqueueOK:
	case enqueueFull:
		t.span.End(obs.Attrs("rejected", RejectBusy))
		s.reject(sess, reqID, RejectBusy, s.cfg.RetryAfter, fmt.Sprintf("tenant %s queue full on shard %d", sess.tenant, instID%int64(len(s.shards))))
	case enqueueStopped:
		t.span.End(obs.Attrs("rejected", RejectDraining))
		s.reject(sess, reqID, RejectDraining, 0, "server is draining")
	}
}

// resolve maps a wire request onto a runnable campaign instance,
// rejecting combinations no driver can execute, and reports whether its
// driver signs — and so runs over a setup checked out of the pool.
func (s *Server) resolve(req Request) (campaign.Instance, bool, error) {
	drv, err := protocol.Lookup(req.Protocol)
	if err != nil {
		return campaign.Instance{}, false, err
	}
	caps := drv.Capabilities()
	scheme := req.Scheme
	switch {
	case !caps.UsesSignatures:
		scheme = ""
	case scheme == "":
		scheme = sig.SchemeEd25519
	default:
		if _, err := sig.ByName(scheme); err != nil {
			return campaign.Instance{}, false, err
		}
	}
	if !caps.Supports(req.N, req.T, adversary.Strategy{}) {
		return campaign.Instance{}, false,
			fmt.Errorf("service: protocol %s does not support n=%d t=%d", req.Protocol, req.N, req.T)
	}
	inst := campaign.Instance{
		Index:     req.Index,
		Protocol:  req.Protocol,
		N:         req.N,
		T:         req.T,
		Scheme:    scheme,
		Adversary: campaign.AdvNone,
		Seed:      req.Seed,
		KeySeed:   req.KeySeed,
		Value:     req.Value,
	}
	return inst, caps.UsesSignatures, nil
}

func (s *Server) reject(sess *session, reqID int, code string, retryAfter time.Duration, msg string) {
	s.stats.rejected(sess.tenant)
	if s.rec.Enabled() {
		s.rec.Point("service.reject", obs.Attrs("tenant", sess.tenant, "code", code))
	}
	// A send failure means the client is gone; nothing to do.
	_ = sess.conn.Send(encodeReject(reqID, code, int(retryAfter.Milliseconds()), msg))
}

// execute runs one admitted task on its executor shard: check a warm
// setup out of the pool (signing drivers), run through the exact
// campaign result/conformance path, check the setup back in, and answer
// the client.
func (s *Server) execute(t task) {
	if s.execGate != nil {
		<-s.execGate
	}
	queueWait := time.Since(t.enqueued)
	source := "none"
	var sc *protocol.SetupCache
	key := protocol.SetupKey{Scheme: t.inst.Scheme, N: t.inst.N, KeySeed: t.inst.KeySeed}
	if t.cacheable {
		var warm bool
		sc, warm = s.pool.checkout(key)
		if warm {
			source = "pool-hit"
		} else {
			source = "pool-miss"
		}
	}
	runStart := time.Now()
	res := campaign.RunInstanceWith(t.inst, sc)
	runDur := time.Since(runStart)
	if res.Err == campaign.ErrDriverPanic {
		// The driver panicked (the campaign layer contained it): count
		// it, and drop the setup it interrupted — its state is unknown —
		// so the next checkout rebuilds from seeds.
		s.panics.Add(1)
		if s.rec.Enabled() {
			s.rec.Point("service.panic", obs.Attrs("protocol", t.inst.Protocol,
				"n", t.inst.N, "t", t.inst.T, "seed", t.inst.Seed))
		}
	} else if t.cacheable {
		s.pool.checkin(key, sc)
	}
	reply := Reply{Result: res, QueueNS: queueWait.Nanoseconds(), RunNS: runDur.Nanoseconds(), Source: source}
	payload, err := json.Marshal(reply)
	if err != nil {
		payload = nil // impossible for plain-data Result; fail the frame below
	}
	// Counted and its span ended before the reply leaves, so a client
	// holding its reply finds it in the very next snapshot and trace
	// flush; latency therefore runs from admission to the reply being
	// ready to send.
	conformant := res.Err == "" && res.Conformance != nil && res.Conformance.Conformant()
	s.stats.served(t.sess.tenant, res.Err != "", conformant, time.Since(t.enqueued), queueWait)
	t.span.End(obs.Attrs("conformant", conformant, "source", source,
		"queue_ns", queueWait.Nanoseconds(), "run_ns", runDur.Nanoseconds(), "errored", res.Err != ""))
	// A send failure means the client went away mid-request; the run
	// still counts (the work was done).
	_ = t.sess.conn.Send(transport.EncodePayload(KindResult, t.reqID, payload))
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

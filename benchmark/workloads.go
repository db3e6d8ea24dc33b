package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/transport"
)

// workload is one traffic mix. Every workload is a closed loop: a caller
// waits for its reply before it issues its next operation, which is how
// service.Client.Do, fdcampaign and the sched workers use the system.
type workload struct {
	name string
	why  string
	// callers is the number of concurrent closed-loop callers.
	callers int
	// checkpoint is the completed-instance count at which retained heap
	// is sampled (see runWindow).
	checkpoint int64
	// open builds fresh state and warms it; it is the set-up that
	// setup_s times.
	open func(cfg sessionConfig) (session, error)
}

// sessionConfig is what a session is built from.
type sessionConfig struct {
	origin
	quick bool
	// trace, when set, records spans and asks for the counting schemes.
	trace *tracer
}

func (c sessionConfig) rename() func(string) string {
	if c.trace != nil {
		return counted
	}
	return plain
}

var workloads = []workload{
	{
		name: "serve_steady",
		why: "fdserve over TCP loopback, 2 tenants, chain n=8 t=2 ed25519 on one warm pool cell, fresh value per request: " +
			"the amortised hot path; sig, core/fd and service+transport do the work",
		callers:    2,
		checkpoint: 20000,
		open:       func(cfg sessionConfig) (session, error) { return openServe(cfg, false) },
	},
	{
		name: "serve_churn",
		why: "same daemon, 6 protocols x 2 schemes x 8 key seeds and a never-seen key seed every 32nd request: " +
			"pool inserts beside lookups; keygen, keydist and pool bookkeeping set the tail",
		callers:    2,
		checkpoint: 10000,
		open:       func(cfg sessionConfig) (session, error) { return openServe(cfg, true) },
	},
	{
		name: "campaign_grid",
		why: "campaign.Run(spec, 2) sweeps of 1,100 instances over protocol x size x scheme x adversary x netcond: " +
			"expand, drivers, conformance and per-worker setup caches work; service and transport do nothing",
		callers:    1,
		checkpoint: 5500,
		open:       openGrid,
	},
	{
		name: "eig_grid",
		why: "campaign.RunInstance on the eig driver at n=16/64/128, one caller, the second core free for ba's parallel paths: " +
			"no signatures; ba ingest/resolve and sim are all of it, a sig change must leave it flat",
		callers:    1,
		checkpoint: 210,
		open:       openEIG,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pin hashes the first outputs of caller 0, so expected.json can pin
// them for the default seed. Only caller 0 touches it.
type pin struct {
	h    hash.Hash
	left int
}

func newPin(count int) *pin { return &pin{h: sha256.New(), left: count} }

func (p *pin) add(v any) {
	if p.left == 0 {
		return
	}
	p.left--
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(err.Error())
	}
	p.h.Write(data)
}

// digest is empty until every pinned output has been seen.
func (p *pin) digest() string {
	if p.left > 0 {
		return ""
	}
	return hex.EncodeToString(p.h.Sum(nil))
}

// ---- serve_steady and serve_churn ----

// serveFacts is what the traced serving run learns about the service
// and transport layers, one entry per request and caller.
type serveFacts struct {
	requests      [][]requestTimes // by caller
	insts         int
	before, after service.Snapshot
	wire          transport.ConnStats
}

// requestTimes splits one request's client-observed time, in microseconds.
type requestTimes struct{ do, queue, run, wire float64 }

type serveSession struct {
	cfg     sessionConfig
	churn   bool
	srv     *service.Server
	stop    func()
	clients []*service.Client
	pinned  *pin
	facts   *serveFacts
}

const (
	serveCallers = 2
	// serveWarmup is the number of warm-up requests each caller sends in
	// one round before the timer starts.
	serveWarmup = 256
	pinnedOps   = 64
)

// openServe starts the daemon the way cmd/fdserve does (default Config
// behind a TCP listener on loopback), dials one client per tenant and
// warms the pool.
func openServe(cfg sessionConfig, churn bool) (session, error) {
	ln, err := transport.ListenConn("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveSession{cfg: cfg, churn: churn, pinned: newPin(pinnedOps)}
	s.srv, s.stop = startDaemon(ln)
	var dialOpts []transport.ConnOption
	if cfg.trace != nil {
		s.facts = &serveFacts{requests: make([][]requestTimes, serveCallers)}
		dialOpts = append(dialOpts, transport.WithConnStats(&s.facts.wire))
	}
	for c := 0; c < serveCallers; c++ {
		client, err := service.Dial(ln.Addr(), "tenant-"+strconv.Itoa(c), dialOpts...)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, client)
	}
	if err := s.warm(); err != nil {
		s.close()
		return nil, err
	}
	if s.facts != nil {
		s.facts.before = s.srv.Snapshot()
	}
	return s, nil
}

// warm sends warm-up rounds from both callers at once. serve_churn sends
// one round over its recurring working set; serve_steady repeats until
// its one cell has parked as many setups as there are callers, after
// which no request in the window can miss.
func (s *serveSession) warm() error {
	for round := 0; round < 16; round++ {
		errs := make([]error, serveCallers)
		var wg sync.WaitGroup
		for c := 0; c < serveCallers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < serveWarmup && errs[c] == nil; i++ {
					errs[c] = s.op(c, -1-(round*serveWarmup+i)).err
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		if s.churn || s.srv.Snapshot().Pool.Idle >= serveCallers {
			return nil
		}
	}
	return fmt.Errorf("warm-up: pool never parked %d setups", serveCallers)
}

func (s *serveSession) request(caller, seq int) service.Request {
	if s.churn {
		return churnRequest(s.cfg.origin, caller, seq, s.cfg.rename())
	}
	return steadyRequest(s.cfg.origin, caller, seq, s.cfg.rename()(churnSchemes[0]))
}

// op sends one request and checks its reply; a negative seq is a warm-up
// request, which is neither pinned nor recorded.
func (s *serveSession) op(caller, seq int) opResult {
	req := s.request(caller, seq)
	start := time.Now()
	reply, err := s.clients[caller].Do(req)
	r := opResult{dur: time.Since(start), insts: 1}
	if err == nil {
		err = checkResult(reply.Result)
	}
	if err == nil && req.Protocol == campaign.ProtoChain && reply.Result.Messages != req.N-1 {
		err = fmt.Errorf("chain run sent %d messages, want n-1 = %d", reply.Result.Messages, req.N-1)
	}
	if err != nil {
		r.failed = 1
		r.err = fmt.Errorf("%s request: %w", req.Protocol, err)
		return r
	}
	if caller == 0 && seq >= 0 {
		s.pinned.add(reply.Result)
	}
	if s.facts != nil && seq >= 0 {
		s.record(caller, seq, start, r.dur, reply)
	}
	return r
}

// record rebuilds the request's child spans from the reply: the daemon
// reports how long the request queued and ran, the rest of the client's
// time is JSON, framing, checksums and the socket, split evenly around.
func (s *serveSession) record(caller, seq int, start time.Time, dur time.Duration, reply *service.Reply) {
	queue, run := time.Duration(reply.QueueNS), time.Duration(reply.RunNS)
	wire := dur - queue - run
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	s.facts.requests[caller] = append(s.facts.requests[caller], requestTimes{us(dur), us(queue), us(run), us(wire)})
	id := fmt.Sprintf("c%d-%d", caller, seq)
	root := s.cfg.trace.add(id, 0, "service.Client.Do", start, dur)
	s.cfg.trace.add(id, root, "service.queue", start.Add(wire/2), queue)
	s.cfg.trace.add(id, root, "service.run", start.Add(wire/2+queue), run)
}

func (s *serveSession) verify() error {
	if s.facts != nil {
		s.facts.after = s.srv.Snapshot()
		s.facts.insts = int(s.facts.after.Served - s.facts.before.Served)
	}
	snap := s.srv.Snapshot()
	if snap.Errors != 0 || snap.Rejected != 0 {
		return fmt.Errorf("daemon counted %d errored and %d rejected requests", snap.Errors, snap.Rejected)
	}
	return nil
}

func (s *serveSession) pinnedDigest() string { return s.pinned.digest() }

func (s *serveSession) close() {
	s.stop()
	for _, c := range s.clients {
		c.Close()
	}
}

// listener is an acceptor the benchmark can shut.
type listener interface {
	transport.Acceptor
	Close() error
}

// startDaemon serves l on a default-config server, as cmd/fdserve does.
// stop drains the server, closes l and waits for Serve to return.
func startDaemon(l listener) (srv *service.Server, stop func()) {
	srv = service.NewServer(service.Config{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	return srv, func() {
		srv.Drain()
		l.Close()
		<-served
	}
}

// checkResult is the gate every instance passes: error-free and
// conformant, or it counts as failed.
func checkResult(res campaign.Result) error {
	if res.Err != "" {
		return fmt.Errorf("instance %s errored: %s", res.Group, res.Err)
	}
	if !res.Conformance.Conformant() {
		return fmt.Errorf("instance %s seed %d not conformant: %v", res.Group, res.Seed, res.Conformance)
	}
	return nil
}

// ---- campaign_grid ----

type gridSession struct {
	cfg sessionConfig
	// first is sweep 1's report digest, re-derived on one worker by
	// verify: the byte-identical-report contract is the safety net.
	first string
}

const gridWorkers = 2

// openGrid runs sweep 0 untimed: the first sweep of a process pays for
// heap growth and pool warm-up the later ones do not.
func openGrid(cfg sessionConfig) (session, error) {
	s := &gridSession{cfg: cfg}
	if r, _ := s.sweep(0, gridWorkers); r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// sweep runs sweep k to its canonical JSON, the report a user is handed.
func (s *gridSession) sweep(k, workers int) (opResult, string) {
	spec := gridSpec(s.cfg.origin, k, s.cfg.quick, s.cfg.rename())
	start := time.Now()
	rep, err := campaign.Run(spec, workers)
	var data []byte
	if err == nil {
		data, err = rep.CanonicalJSON()
	}
	r := opResult{dur: time.Since(start)}
	if err != nil {
		r.insts, r.failed, r.err = 1, 1, err
		return r, ""
	}
	r.insts = rep.Instances
	for _, res := range rep.Results {
		if err := checkResult(res); err != nil {
			r.failed++
			r.err = err
		}
	}
	sum := sha256.Sum256(data)
	return r, hex.EncodeToString(sum[:])
}

func (s *gridSession) op(_, seq int) opResult {
	start := time.Now()
	r, digest := s.sweep(seq+1, gridWorkers)
	if seq == 0 {
		s.first = digest
	}
	s.cfg.trace.add("sweep-"+strconv.Itoa(seq+1), 0, "campaign.Run", start, r.dur)
	return r
}

func (s *gridSession) pinnedDigest() string { return s.first }

func (s *gridSession) verify() error {
	if s.first == "" {
		return nil
	}
	if _, digest := s.sweep(1, 1); digest != s.first {
		return fmt.Errorf("sweep 1 report differs between %d workers (%s) and 1 worker (%s)", gridWorkers, s.first, digest)
	}
	return nil
}

func (s *gridSession) close() {}

// ---- eig_grid ----

type eigSession struct {
	cfg    sessionConfig
	pass   []eigCase
	pinned *pin
}

// openEIG runs one pass untimed, under seeds the window never uses.
func openEIG(cfg sessionConfig) (session, error) {
	s := &eigSession{cfg: cfg, pass: eigPass(cfg.quick), pinned: newPin(1)}
	if r := s.runPass(-1); r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// runPass runs pass k, instance after instance. Pass -1 is the warm-up.
func (s *eigSession) runPass(k int) opResult {
	r := opResult{insts: len(s.pass)}
	results := make([]campaign.Result, 0, len(s.pass))
	type timed struct {
		start time.Time
		dur   time.Duration
	}
	runs := make([]timed, 0, len(s.pass))
	start := time.Now()
	for slot := range s.pass {
		inst := eigInstance(s.cfg.origin, k, slot, s.pass)
		began := time.Now()
		res := campaign.RunInstance(inst)
		runs = append(runs, timed{began, time.Since(began)})
		err := checkResult(res)
		if err == nil && inst.Adversary == campaign.AdvNone && !res.Agreed {
			err = fmt.Errorf("honest eig n=%d t=%d seed %d did not agree", inst.N, inst.T, inst.Seed)
		}
		if err != nil {
			r.failed++
			r.err = err
		}
		results = append(results, res)
	}
	r.dur = time.Since(start)
	if k < 0 || r.err != nil {
		return r
	}
	s.pinned.add(results)
	id := "pass-" + strconv.Itoa(k)
	root := s.cfg.trace.add(id, 0, "eig pass", start, r.dur)
	for slot, c := range s.pass {
		s.cfg.trace.add(id, root, fmt.Sprintf("campaign.RunInstance eig n=%d t=%d %s", c.n, c.t, c.adversary),
			runs[slot].start, runs[slot].dur)
	}
	return r
}

func (s *eigSession) op(_, seq int) opResult { return s.runPass(seq) }
func (s *eigSession) verify() error          { return nil }
func (s *eigSession) pinnedDigest() string   { return s.pinned.digest() }
func (s *eigSession) close()                 {}

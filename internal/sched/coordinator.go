package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/transport"
)

// Coordinator is the campaign.Scheduler that survives worker failure:
// it partitions the expanded instance list into contiguous batches,
// leases them to connected workers, and collects results — requeueing
// on expiry/disconnect/NACK/corruption and dead-lettering after the
// retry budget. One Coordinator runs one campaign (Execute is
// single-use); workers — agreement-service sessions dialled out to it —
// join at any time via Serve or Attach, before or during the run.
type Coordinator struct {
	ctx  context.Context
	cfg  Config
	join chan *workerState
	done chan struct{}

	mu      sync.Mutex
	started bool
	outcome Outcome

	// snap is the live scheduler view behind Debug and the /debug/sched
	// endpoint: the run loop republishes it on every state change, readers
	// load it lock-free at any time mid-run.
	snap atomic.Pointer[DebugSnapshot]

	// connStats aggregates the wire traffic of every adopted worker
	// connection (frames, bytes, redials); the debug snapshot exports it
	// so a degraded network — redialing workers, heartbeat loss — is
	// visible live on /debug/sched.
	connStats transport.ConnStats
}

// NewCoordinator builds a coordinator. Canceling ctx triggers a graceful
// drain: in-flight and pending batches are parked in the DLQ with reason
// ReasonCanceled and Execute still returns a full positional result
// slice, so the caller can emit a valid partial report.
func NewCoordinator(ctx context.Context, cfg Config) *Coordinator {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Coordinator{
		ctx:  ctx,
		cfg:  cfg.withDefaults(),
		join: make(chan *workerState, 64),
		done: make(chan struct{}),
	}
}

// Serve accepts worker connections until the campaign completes or the
// acceptor fails. Each accepted conn handshakes on its own goroutine so
// a half-open client cannot stall the accept loop.
func (c *Coordinator) Serve(a transport.Acceptor) error {
	for {
		conn, err := a.Accept()
		if err != nil {
			select {
			case <-c.done:
				return nil
			default:
				return err
			}
		}
		go c.Attach(conn)
	}
}

// Attach reads the worker's service hello on conn and registers the
// worker. A worker attaching after the campaign completed has its link
// closed.
func (c *Coordinator) Attach(conn transport.Conn) error {
	conn = transport.CountConn(conn, &c.connStats)
	frame, err := conn.Recv()
	if err != nil {
		conn.Close()
		return err
	}
	name, err := transport.DecodeHello(frame, service.KindHello, service.WireTag)
	if err != nil {
		conn.Close()
		return err
	}
	select {
	case c.join <- &workerState{name: name, conn: conn}:
		return nil
	case <-c.done:
		conn.Close()
		return fmt.Errorf("sched: coordinator finished before worker %q joined", name)
	}
}

// Outcome returns the scheduler's execution record (valid after Execute
// returns; zero before).
func (c *Coordinator) Outcome() Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outcome
}

// Task states.
const (
	taskPending = iota
	taskInflight
	taskDone
	taskDead
)

// taskState is one leased batch's lifecycle record.
type taskState struct {
	id        int // batch ordinal
	lo, hi    int // instance index range [lo, hi)
	state     int
	attempts  []Attempt
	excluded  map[string]bool
	notBefore time.Time
	lease     *leaseState // set while inflight
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	name string
	conn transport.Conn
	busy *leaseState // the lease the worker holds (live or revoked)
	gone bool
	// lastBeat is when the worker's latest heartbeat arrived (zero until
	// the first one); it feeds the heartbeat-age column of the debug
	// snapshot and the gap attribute of heartbeat telemetry.
	lastBeat time.Time
}

// leaseState is one issued lease.
type leaseState struct {
	id       int
	task     *taskState
	w        *workerState
	timer    *time.Timer
	deadline time.Time
	start    time.Time
	span     obs.Span // open "sched.lease" span; zero when telemetry is off
}

// Event kinds posted to the loop.
type evKind int

const (
	evMsg evKind = iota
	evGone
	evExpiry
)

type event struct {
	kind  evKind
	w     *workerState
	frame []byte
	lease int
	err   error
}

// runLoop is the single-goroutine scheduler state; every field is owned
// by Execute's loop, so nothing here needs locking.
type runLoop struct {
	cfg       Config
	instances []campaign.Instance
	results   []campaign.Result
	tasks     []*taskState
	workers   []*workerState
	names     map[string]bool
	inflight  map[int]*leaseState
	events    chan event
	done      <-chan struct{}
	leaseSeq  int
	remaining int
	rr        int       // round-robin cursor over workers for fair lease spread
	noWorkers time.Time // since when zero workers are connected (zero value: workers exist)
	outcome   *Outcome
	rec       *obs.Recorder // telemetry sink (Config.Observer; nil = off)
	snap      *atomic.Pointer[DebugSnapshot]
	connStats *transport.ConnStats // shared with Attach-wrapped worker conns
}

// Execute implements campaign.Scheduler. It blocks until every batch is
// completed or dead-lettered and always returns one Result per instance;
// the error return is reserved for misuse (a second Execute call), never
// for worker faults — those are the scheduler's job to absorb.
func (c *Coordinator) Execute(instances []campaign.Instance) ([]campaign.Result, error) {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return nil, fmt.Errorf("sched: coordinator already executed a campaign")
	}
	c.started = true
	c.mu.Unlock()
	defer close(c.done)

	r := &runLoop{
		cfg:       c.cfg,
		instances: instances,
		results:   make([]campaign.Result, len(instances)),
		names:     make(map[string]bool),
		inflight:  make(map[int]*leaseState),
		events:    make(chan event, 256),
		done:      c.done,
		noWorkers: time.Now(),
		outcome:   &Outcome{Schema: OutcomeSchema},
		rec:       c.cfg.Observer,
		snap:      &c.snap,
		connStats: &c.connStats,
	}
	for lo := 0; lo < len(instances); lo += c.cfg.BatchSize {
		hi := lo + c.cfg.BatchSize
		if hi > len(instances) {
			hi = len(instances)
		}
		r.tasks = append(r.tasks, &taskState{
			id: len(r.tasks), lo: lo, hi: hi, excluded: make(map[string]bool),
		})
	}
	r.remaining = len(r.tasks)
	r.publish(time.Now())

	wake := time.NewTimer(time.Hour)
	defer wake.Stop()
	for r.remaining > 0 {
		now := time.Now()
		if !r.noWorkers.IsZero() && now.Sub(r.noWorkers) >= c.cfg.NoWorkerGrace {
			r.drain(ReasonNoWorkers, ErrDeadLettered)
			break
		}
		r.dispatch(now)
		r.publish(time.Now())
		if r.remaining == 0 {
			break
		}
		if !wake.Stop() {
			select {
			case <-wake.C:
			default:
			}
		}
		// The same instant dispatch judged backoffs against: a later one
		// could fall past a notBefore that dispatch saw as still ahead,
		// and the batch would be neither leased nor woken for.
		wake.Reset(r.nextWake(now))
		select {
		case l := <-c.join:
			r.addWorker(l)
		case ev := <-r.events:
			r.handle(ev)
		case <-wake.C:
		case <-c.ctx.Done():
			r.drain(ReasonCanceled, ErrCanceled)
		}
	}

	// Campaign complete: release the fleet.
	for _, w := range r.workers {
		if !w.gone {
			w.conn.Close()
		}
	}
	for _, l := range r.inflight {
		l.timer.Stop()
	}
	r.publish(time.Now())
	if r.rec.Enabled() {
		r.rec.Point("sched.done", obs.Attrs("instances", len(instances),
			"dead_lettered", r.outcome.Stats.DeadLettered))
	}
	c.mu.Lock()
	c.outcome = *r.outcome
	c.mu.Unlock()
	return r.results, nil
}

// post delivers an event unless the loop already finished.
func (r *runLoop) post(ev event) {
	select {
	case r.events <- ev:
	case <-r.done:
	}
}

// nextWake picks the loop's timer: the earliest backoff release, the
// no-worker grace deadline, or a long idle tick.
func (r *runLoop) nextWake(now time.Time) time.Duration {
	const long = time.Hour
	d := time.Duration(-1)
	for _, t := range r.tasks {
		if t.state == taskPending && t.notBefore.After(now) {
			if left := t.notBefore.Sub(now); d < 0 || left < d {
				d = left
			}
		}
	}
	if !r.noWorkers.IsZero() {
		if left := r.noWorkers.Add(r.cfg.NoWorkerGrace).Sub(now); d < 0 || left < d {
			d = left
		}
	}
	if d < 0 {
		return long
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// addWorker adopts a handshaken worker: unique name, reader goroutine.
func (r *runLoop) addWorker(w *workerState) {
	hello := w.name
	for i := 2; r.names[w.name]; i++ {
		w.name = fmt.Sprintf("%s#%d", hello, i)
	}
	r.names[w.name] = true
	r.workers = append(r.workers, w)
	r.outcome.Stats.WorkersJoined++
	r.noWorkers = time.Time{}
	if r.rec.Enabled() {
		r.rec.Point("sched.worker.join", obs.Attrs("worker", w.name))
	}
	go func() {
		for {
			frame, err := w.conn.Recv()
			if err != nil {
				r.post(event{kind: evGone, w: w, err: err})
				return
			}
			r.post(event{kind: evMsg, w: w, frame: frame})
		}
	}()
}

// dispatch assigns every ready batch an eligible idle worker. Workers in
// a batch's excluded set are skipped while ANY connected worker remains
// outside it; when the exclusion would starve the batch (every connected
// worker has already failed it), it is relaxed rather than deadlocked —
// the retry budget still bounds the attempts.
func (r *runLoop) dispatch(now time.Time) {
	if r.outcome.Stats.WorkersJoined < r.cfg.MinWorkers {
		return
	}
	for _, t := range r.tasks {
		if t.state != taskPending || t.notBefore.After(now) {
			continue
		}
		w, relaxed := r.pick(t)
		if w == nil {
			continue
		}
		if relaxed {
			r.outcome.Stats.ExclusionsRelaxed++
		}
		r.issue(t, w, now)
	}
}

// pick selects an idle worker for the task, preferring non-excluded
// workers; the boolean reports exclusion relaxation. The scan starts at
// a rotating cursor so leases spread across the fleet instead of piling
// onto whichever worker answers fastest.
func (r *runLoop) pick(t *taskState) (*workerState, bool) {
	n := len(r.workers)
	var idleExcluded *workerState
	anyEligible := false
	for i := 0; i < n; i++ {
		w := r.workers[(r.rr+i)%n]
		if w.gone {
			continue
		}
		if !t.excluded[w.name] {
			anyEligible = true
			if w.busy == nil {
				r.rr = ((r.rr+i)%n + 1) % n
				return w, false
			}
		} else if w.busy == nil && idleExcluded == nil {
			idleExcluded = w
		}
	}
	if !anyEligible && idleExcluded != nil {
		return idleExcluded, true
	}
	return nil, false
}

// issue leases the task's batch to w: one service batch frame, whose
// deadline is the lease TTL.
func (r *runLoop) issue(t *taskState, w *workerState, now time.Time) {
	r.leaseSeq++
	id := r.leaseSeq
	frame, err := service.EncodeBatch(id, r.cfg.LeaseTTL, r.instances[t.lo:t.hi])
	if err != nil {
		// Instances are plain data; this cannot happen. Park defensively
		// rather than looping forever on an unmarshalable batch.
		r.deadLetter(t, "unmarshalable batch: "+err.Error(), ErrDeadLettered)
		return
	}
	if err := w.conn.Send(frame); err != nil {
		r.loseWorker(w, err) // task stays pending; next dispatch retries
		return
	}
	l := &leaseState{id: id, task: t, w: w, deadline: now.Add(r.cfg.LeaseTTL), start: now}
	t.state = taskInflight
	t.lease = l
	w.busy = l
	r.inflight[id] = l
	r.outcome.Stats.LeasesIssued++
	if r.rec.Enabled() {
		l.span = r.rec.Begin(obs.Event{Scope: "sched.lease", Inst: -1, Node: -1,
			Attrs: obs.Attrs("lease", id, "batch", t.id, "worker", w.name,
				"attempt", len(t.attempts)+1, "size", t.hi-t.lo)})
	}
	l.timer = time.AfterFunc(r.cfg.LeaseTTL, func() { r.post(event{kind: evExpiry, lease: id}) })
}

// handle processes one loop event.
func (r *runLoop) handle(ev event) {
	switch ev.kind {
	case evGone:
		r.loseWorker(ev.w, ev.err)
	case evExpiry:
		l := r.inflight[ev.lease]
		if l == nil {
			return
		}
		// A heartbeat may have extended the deadline after the timer
		// fired; honor the extension instead of the stale event.
		if left := time.Until(l.deadline); left > 5*time.Millisecond {
			l.timer.Reset(left)
			return
		}
		r.outcome.Stats.LeasesExpired++
		if r.rec.Enabled() {
			r.rec.Point("sched.lease.expired", obs.Attrs("lease", l.id,
				"batch", l.task.id, "worker", l.w.name))
		}
		// The worker stays marked busy: it may still be crunching the
		// revoked lease. It becomes assignable again only when it reports
		// a (stale) terminal message or disconnects.
		r.failAttempt(l, "lease expired without result or heartbeat")
	case evMsg:
		switch transport.FrameKind(ev.frame) {
		case service.KindHeartbeat:
			if id, _, err := transport.DecodePayload(ev.frame, service.KindHeartbeat, "service heartbeat"); err == nil {
				if l := r.inflight[id]; l != nil && l.w == ev.w {
					now := time.Now()
					l.deadline = now.Add(r.cfg.LeaseTTL)
					l.timer.Reset(r.cfg.LeaseTTL)
					r.outcome.Stats.Heartbeats++
					if r.rec.Enabled() {
						since := l.start
						if !ev.w.lastBeat.IsZero() {
							since = ev.w.lastBeat
						}
						r.rec.Point("sched.heartbeat", obs.Attrs("worker", ev.w.name,
							"lease", id, "gap_ms", now.Sub(since).Milliseconds()))
					}
					ev.w.lastBeat = now
				}
			}
		case service.KindResult:
			r.handleResult(ev.w, ev.frame)
		case service.KindReject:
			r.handleReject(ev.w, ev.frame)
		}
	}
}

// handleResult validates and stores one result frame.
func (r *runLoop) handleResult(w *workerState, frame []byte) {
	id, payload, err := transport.DecodePayload(frame, service.KindResult, "service result")
	if err != nil {
		// Corrupt frame: attribute it to the worker's current lease.
		r.outcome.Stats.CorruptResults++
		if l := w.busy; l != nil {
			w.busy = nil
			if r.inflight[l.id] == l {
				r.failAttempt(l, "corrupt result frame: "+err.Error())
			}
		}
		return
	}
	l := r.inflight[id]
	if l == nil || l.w != w {
		// A revoked lease finishing late (stall recovery): the batch has
		// been reassigned; drop the result, free the zombie worker.
		r.outcome.Stats.StaleResults++
		if w.busy != nil && w.busy.id == id {
			w.busy = nil
		}
		return
	}
	w.busy = nil
	var results []campaign.Result
	if err := json.Unmarshal(payload, &results); err != nil {
		r.outcome.Stats.CorruptResults++
		r.failAttempt(l, "undecodable result payload: "+err.Error())
		return
	}
	t := l.task
	if len(results) != t.hi-t.lo {
		r.outcome.Stats.CorruptResults++
		r.failAttempt(l, fmt.Sprintf("result count mismatch: got %d for batch of %d", len(results), t.hi-t.lo))
		return
	}
	for j := range results {
		if results[j].Index != t.lo+j {
			r.outcome.Stats.CorruptResults++
			r.failAttempt(l, fmt.Sprintf("result index mismatch at offset %d: got %d want %d", j, results[j].Index, t.lo+j))
			return
		}
	}
	l.timer.Stop()
	delete(r.inflight, l.id)
	copy(r.results[t.lo:t.hi], results)
	t.state = taskDone
	t.lease = nil
	r.remaining--
	r.outcome.Stats.BatchesCompleted++
	if r.rec.Enabled() {
		l.span.End(obs.Attrs("outcome", "ok", "lease", l.id, "batch", t.id,
			"worker", l.w.name, "size", t.hi-t.lo))
	}
}

// handleReject records a lease the worker refused to admit (counted
// as a NACK): a bad instance, a full queue, a draining daemon.
func (r *runLoop) handleReject(w *workerState, frame []byte) {
	id, rej, err := service.DecodeReject(frame)
	if err != nil {
		return
	}
	r.outcome.Stats.Nacks++
	if w.busy != nil && w.busy.id == id {
		w.busy = nil
	}
	if l := r.inflight[id]; l != nil && l.w == w {
		r.failAttempt(l, "worker rejected the batch: "+rej.Error())
	}
}

// loseWorker removes a dead worker, failing its in-flight lease.
func (r *runLoop) loseWorker(w *workerState, err error) {
	if w.gone {
		return
	}
	w.gone = true
	w.conn.Close()
	r.outcome.Stats.WorkersLost++
	if r.rec.Enabled() {
		r.rec.Point("sched.worker.lost", obs.Attrs("worker", w.name, "err", err))
	}
	if l := w.busy; l != nil {
		w.busy = nil
		if r.inflight[l.id] == l {
			r.failAttempt(l, fmt.Sprintf("worker disconnected: %v", err))
		}
	}
	connected := 0
	for _, other := range r.workers {
		if !other.gone {
			connected++
		}
	}
	if connected == 0 {
		r.noWorkers = time.Now()
	}
}

// endAttempt closes lease l as a failed attempt of its batch: the lease
// leaves the in-flight set, and the batch's attempt log and the lease's
// span record how it ended.
func (r *runLoop) endAttempt(l *leaseState, outcome, msg string, now time.Time) {
	l.timer.Stop()
	delete(r.inflight, l.id)
	t := l.task
	t.lease = nil
	t.attempts = append(t.attempts, Attempt{
		Worker:    l.w.name,
		Err:       msg,
		Start:     l.start,
		ElapsedMS: now.Sub(l.start).Milliseconds(),
	})
	if r.rec.Enabled() {
		l.span.End(obs.Attrs("outcome", outcome, "lease", l.id, "batch", t.id,
			"worker", l.w.name, "err", msg))
	}
}

// failAttempt records a failed attempt against the lease's batch,
// excludes the worker, and requeues with backoff — or dead-letters when
// the budget is spent.
func (r *runLoop) failAttempt(l *leaseState, msg string) {
	now := time.Now()
	r.endAttempt(l, "fail", msg, now)
	t := l.task
	t.excluded[l.w.name] = true
	if len(t.attempts) >= r.cfg.RetryBudget {
		r.deadLetter(t, ReasonBudget, ErrDeadLettered)
		return
	}
	t.state = taskPending
	t.notBefore = now.Add(r.cfg.backoffDelay(t.id, len(t.attempts)))
	r.outcome.Stats.Requeues++
	if r.rec.Enabled() {
		r.rec.Point("sched.requeue", obs.Attrs("batch", t.id,
			"attempts", len(t.attempts), "delay_ms", t.notBefore.Sub(now).Milliseconds()))
	}
}

// deadLetter parks the batch: fixed-string error results (the report
// stays deterministic) and a DLQ record carrying the variable detail.
func (r *runLoop) deadLetter(t *taskState, reason, resultErr string) {
	t.state = taskDead
	t.lease = nil
	r.remaining--
	indices := make([]int, 0, t.hi-t.lo)
	groups := make([]string, 0, t.hi-t.lo)
	for i := t.lo; i < t.hi; i++ {
		inst := r.instances[i]
		r.results[i] = campaign.Result{Index: inst.Index, Group: inst.GroupKey(), Seed: inst.Seed, Err: resultErr}
		indices = append(indices, i)
		groups = append(groups, r.results[i].Group)
	}
	slices.Sort(groups)
	groups = slices.Compact(groups)
	r.outcome.Stats.DeadLettered += t.hi - t.lo
	r.outcome.DLQ = append(r.outcome.DLQ, DeadLetter{
		Batch:     t.id,
		Instances: indices,
		Groups:    groups,
		Reason:    reason,
		Attempts:  t.attempts,
	})
	if r.rec.Enabled() {
		r.rec.Point("sched.dlq", obs.Attrs("batch", t.id,
			"instances", t.hi-t.lo, "attempts", len(t.attempts), "reason", reason))
	}
}

// drain parks every unfinished batch (graceful shutdown or total worker
// loss), recording a terminal attempt for in-flight leases.
func (r *runLoop) drain(reason, resultErr string) {
	now := time.Now()
	for _, t := range r.tasks {
		switch t.state {
		case taskInflight:
			t.lease.w.busy = nil
			r.endAttempt(t.lease, "drained", "drained while in flight: "+reason, now)
			r.deadLetter(t, reason, resultErr)
		case taskPending:
			r.deadLetter(t, reason, resultErr)
		}
	}
}

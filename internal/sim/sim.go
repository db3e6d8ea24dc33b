// Package sim implements the paper's model of computation (§2) as a
// deterministic lockstep simulator: a fully connected network of n nodes
// communicating in synchronous rounds, with reliable bounded-time delivery
// (N1) and trustworthy immediate-sender identification (N2).
//
// The engine stamps the From and Round fields of every message itself, so
// no process — faulty or not — can spoof its identity, exactly as N2
// demands. Faulty nodes are ordinary Process implementations that deviate
// from the protocol; they control only their own messages (Byzantine
// behaviour), never the network.
//
// Determinism: inboxes are sorted by sender, and everything the engine
// does with messages — delivery tracing, network fates, counting and
// queueing — happens serially in node-ID order, so a run is a pure
// function of (processes, seeds) at any GOMAXPROCS. Every table of
// package experiments is therefore exactly reproducible.
//
// Concurrency: the Step calls of different nodes in one round may run at
// the same time, on both engines. The transport runners step every node
// on its own goroutine; this engine steps a round's nodes on several
// cores when the work its processes declare for the round (Worker) adds
// up to ParallelWork, and in node order on one goroutine otherwise. A
// declaration is a pure function of a process's state and inbox, priced
// by static constants: ba's OM(t) node declares the entries it will
// ingest, keydist's node the signatures it will make and check, each at
// its scheme's sig.CostOf. Whether a round may go parallel is therefore
// a property of the run, never of the machine's speed, and a process
// that declares nothing adds nothing. Processes of one run may share
// only values that are safe for concurrent use and whose result does not
// depend on the order of use, such as ba's shared relayed-entry counter
// (an atomic.Int64) and its pool of leaf levels, or an established
// signer (sig.Signer is safe for concurrent use).
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - RecordingTracer and its methods: the delivery record and Views the behaviour tests read,
//     and the delivered traffic the reference-oracle suites hand to simtest.Traffic.
package sim

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/metrics"
	"repro/internal/model"
)

// Process is one node's protocol logic. The engine calls Step once per
// round; received holds the messages sent to this node in the previous
// round (empty in round 1), which makes a node's behaviour a function of
// its view, as the model requires.
type Process interface {
	// Step runs one round and returns the messages to send this round.
	// The engine stamps From and Round on each returned message; a process
	// only sets To, Kind, and Payload. Callers must consume the returned
	// slice before the next Step call: processes may reuse its backing
	// array across rounds (the engine and the transport runner both copy
	// the messages immediately). Symmetrically, the engine reuses
	// received's backing array after Step returns — in later rounds and,
	// since inboxes are pooled, in later runs of other engines — so a
	// process must not retain the slice itself; the Payload bytes are
	// never modified and are safe to alias. Step calls of different
	// nodes may run concurrently (see the package doc); one node's calls
	// never overlap, and each sees the previous one's effects.
	Step(round int, received []model.Message) []model.Message
}

// Finisher is an optional interface: processes that know they have reached
// a terminal state report it so the engine can stop as soon as every
// process is done and no messages are in flight.
type Finisher interface {
	// Finished reports whether the process has reached a terminal state
	// (decided, discovered a failure, or completed its protocol role).
	Finished() bool
}

// ProcessFunc adapts a function to the Process interface.
type ProcessFunc func(round int, received []model.Message) []model.Message

// Step implements Process.
func (f ProcessFunc) Step(round int, received []model.Message) []model.Message {
	return f(round, received)
}

// Silent is a Process that never sends anything: the simplest faulty node
// (crashed from the start), also useful to fill non-participating slots.
type Silent struct{}

// Step implements Process.
func (Silent) Step(int, []model.Message) []model.Message { return nil }

// Finished implements Finisher.
func (Silent) Finished() bool { return true }

// Drop is the Network fate meaning the message is lost in transit.
const Drop = -1

// Network decides the delivery fate of each message as it enters the
// network. Fate is called once per message, in deterministic program
// order (sender ID, then the sender's send order), with the message
// already stamped with From and the sending round. It returns:
//
//	0     ideal delivery (next round), the synchronous-model default
//	d > 0 delivery delayed by d extra rounds (arrives in round+1+d)
//	Drop  the message is lost and never delivered
//
// A nil Network is the ideal network of the paper's model (§2, N1).
// Implementations may keep per-link state (seeded RNG streams,
// bandwidth windows); no engine calls Fate concurrently.
// internal/netcond compiles declarative condition specs into this
// interface; internal/transport's runners consult the same one Network
// sender-side, one at a time, so socket runs degrade identically.
type Network interface {
	Fate(m model.Message, round int) int
}

// Result is the outcome of a simulator run.
type Result struct {
	// Rounds is the number of engine steps executed.
	Rounds int
	// Counters holds the traffic statistics for the run.
	Counters *metrics.Counters
}

// Engine drives a set of processes in lockstep rounds.
type Engine struct {
	cfg    model.Config
	procs  []Process
	count  *metrics.Counters
	tracer Tracer
	// net, when non-nil, decides per-message delivery fates; nil is the
	// ideal synchronous network and keeps Run on its original path.
	net Network
}

// Option configures an Engine.
type Option func(*Engine)

// WithTracer attaches a trace sink that observes every delivered
// message.
func WithTracer(t Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// WithNetwork layers a network-condition model under the engine: every
// send consults net.Fate and is delivered next round, delayed, or
// dropped accordingly. Delayed messages are restamped with the round
// they are effectively sent in (round+d), wait in a virtual-clock
// delivery queue, and join the destination inbox in round+1+d, where
// the usual deterministic sort orders them; a delay that would land
// past maxRounds is never delivered, exactly like a real deadline
// miss. WithNetwork(nil) is a no-op: the ideal path stays
// byte-identical and allocation-flat.
func WithNetwork(n Network) Option {
	return func(e *Engine) { e.net = n }
}

// WithCounters uses an external counter set, letting callers accumulate
// traffic across several protocol phases (e.g. key distribution followed
// by many failure-discovery runs) into one budget.
func WithCounters(c *metrics.Counters) Option {
	return func(e *Engine) { e.count = c }
}

// New creates an engine for the given configuration. procs must contain
// exactly cfg.N processes, indexed by node ID.
func New(cfg model.Config, procs []Process, opts ...Option) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(procs) != cfg.N {
		return nil, fmt.Errorf("sim: got %d processes for n=%d", len(procs), cfg.N)
	}
	for i, p := range procs {
		if p == nil {
			return nil, fmt.Errorf("sim: process %d is nil", i)
		}
	}
	e := &Engine{
		cfg:   cfg,
		procs: procs,
		count: metrics.NewCounters(),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Run executes up to maxRounds rounds and returns the result. It stops
// early when no messages are in flight and every process that implements
// Finisher reports done (processes without Finisher are assumed done when
// silent). maxRounds bounds the run because property N1 bounds delivery
// time: a protocol's deadline is a round number, and "nothing arrived by
// the deadline" is itself observable, which is what lets silence be
// discovered as a failure.
//
// A round runs in three phases. First, serially in node order, every
// inbox is sorted and traced, and each process's declared work (Worker)
// summed. Then every process steps: in node order on this goroutine, or
// — when the declarations reach ParallelWork and GOMAXPROCS > 1 — on
// this goroutine and the parked helpers at once (see stepJob). Last,
// serially in node order, each node's sends are stamped, given their
// fates, counted and queued. Only the middle phase can run concurrently, so every
// Fate call, counter update, delivery and trace event happens in the same
// order at any GOMAXPROCS.
func (e *Engine) Run(maxRounds int) *Result {
	if maxRounds < 1 {
		maxRounds = 1
	}
	// Per-node inboxes, double-buffered: inFlight holds this round's
	// deliveries, next collects the sends. Both come from the run store
	// and keep their backing arrays across rounds and runs (truncate,
	// don't reallocate), which is what keeps a run allocation-flat; every
	// inbox is sorted before delivery, so seeded runs are byte-identical.
	store := borrowStore(e.cfg.N)
	defer store.release(e.cfg.N)
	inFlight, next := store.inFlight[:e.cfg.N], store.next[:e.cfg.N]
	// delayed is the virtual-clock delivery queue, keyed by delivery
	// round; it exists only under a network-condition model, so the
	// ideal path allocates nothing extra.
	var delayed map[int][]model.Message
	pending := 0
	if e.net != nil {
		delayed = make(map[int][]model.Message)
	}
	// job is the parallel step phase's hand-off, armed on the first round
	// that takes it and reused by every later one.
	var job *stepJob
	rounds := 0
	for round := 1; round <= maxRounds; round++ {
		rounds = round
		// Cleared as well as truncated: a slot past an inbox's length
		// holds no message, so no payload outlives the run in the pool.
		empty(next)
		if pending > 0 {
			if late := delayed[round]; len(late) > 0 {
				// Late arrivals join this round's inboxes before the
				// deterministic sort, so their position never depends on
				// when they were queued.
				for _, m := range late {
					inFlight[m.To] = append(inFlight[m.To], m)
				}
				pending -= len(late)
				delete(delayed, round)
			}
		}
		for _, inbox := range inFlight {
			SortMessages(inbox)
			if e.tracer != nil {
				for _, m := range inbox {
					e.tracer.Delivered(m)
				}
			}
		}
		parallel := runtime.GOMAXPROCS(0) > 1 && e.declared(round, inFlight) >= ParallelWork
		if parallel {
			if job == nil {
				job = &store.job
				job.procs = e.procs
			}
			job.step(round, inFlight)
		}
		sentAny := false
		for i, p := range e.procs {
			id := model.NodeID(i)
			var out []model.Message
			if parallel {
				out = job.outs[i]
			} else {
				out = p.Step(round, inFlight[i])
			}
			for _, m := range out {
				if !m.To.Valid(e.cfg.N) || m.To == id {
					// Sends to invalid destinations or to self are dropped:
					// the network has no such links. A correct protocol
					// never does this; a faulty one gains nothing.
					continue
				}
				m.From = id
				m.Round = round
				if e.net != nil {
					switch d := e.net.Fate(m, round); {
					case d < 0:
						// Lost in transit: the send happened (and is
						// counted), the delivery never does.
						e.count.Record(m)
						continue
					case d > 0:
						// Restamped as if sent d rounds later — the same
						// stamp the transport runner puts on the wire, so
						// receiver views match the socket path exactly.
						m.Round = round + d
						e.count.Record(m)
						sentAny = true
						delayed[round+1+d] = append(delayed[round+1+d], m)
						pending++
						continue
					}
				}
				e.count.Record(m)
				sentAny = true
				next[m.To] = append(next[m.To], m)
			}
		}
		inFlight, next = next, inFlight
		if !sentAny && pending == 0 && e.allFinished() {
			break
		}
	}
	return &Result{Rounds: rounds, Counters: e.count}
}

// runStore is the storage a run moves its messages through: the two
// inbox arrays and the parallel step phase's hand-off with its slice of
// per-node sends. Runs borrow one and give it back, so a run re-grows
// nothing an earlier run of its size has grown: a store keeps the
// largest n it has served, and each inbox the largest backing array it
// has needed. Every message a store held is cleared before it goes back,
// so an idle store keeps no payload reachable, and the collections that
// empty a sync.Pool take idle stores with them.
type runStore struct {
	inFlight, next [][]model.Message
	job            stepJob
	// idle is set while no run holds the store; a borrower claims the
	// store by clearing it.
	idle atomic.Bool
}

// storePool holds the idle stores, and spare, weakly, the one released
// last. A sync.Pool keeps what a goroutine gives it in that goroutine's
// P's private slot, which no other P reads: a goroutine that moved to
// another P between two runs — a parallel round's wake-ups and, under
// load, preemption move it — found no store and grew a whole new one,
// some 170 allocations at n=16. spare reaches the store from any P, and
// as only the pool holds it strongly, collections free it when they
// would free the pool's. A store lent through spare leaves its pool
// entry behind; a borrower skips an entry it cannot claim.
var (
	storePool sync.Pool
	spareMu   sync.Mutex
	spare     weak.Pointer[runStore]
)

// borrowStore returns a store with room for n nodes.
func borrowStore(n int) *runStore {
	s := claimStore()
	if s == nil {
		s = new(runStore)
	}
	if len(s.inFlight) < n {
		grow := func(a [][]model.Message) [][]model.Message {
			return append(a, make([][]model.Message, n-len(a))...)
		}
		s.inFlight, s.next, s.job.outs = grow(s.inFlight), grow(s.next), grow(s.job.outs)
	}
	return s
}

// claimStore lends out an idle store, or returns nil when there is none.
func claimStore() *runStore {
	for {
		s, _ := storePool.Get().(*runStore)
		if s == nil {
			break
		}
		if s.idle.CompareAndSwap(true, false) {
			return s
		}
	}
	spareMu.Lock()
	s := spare.Value()
	spareMu.Unlock()
	if s != nil && s.idle.CompareAndSwap(true, false) {
		return s
	}
	return nil
}

// release clears the first n inboxes, in whichever order the run left
// them, and the hand-off — a panicking round's included — and returns
// the store to the pool and to spare.
func (s *runStore) release(n int) {
	empty(s.inFlight[:n])
	empty(s.next[:n])
	clear(s.job.outs[:n])
	s.job.procs, s.job.inboxes, s.job.panicked = nil, nil, nil
	s.idle.Store(true)
	storePool.Put(s)
	spareMu.Lock()
	spare = weak.Make(s)
	spareMu.Unlock()
}

// empty clears and truncates every inbox.
func empty(inboxes [][]model.Message) {
	for i, inbox := range inboxes {
		clear(inbox)
		inboxes[i] = inbox[:0]
	}
}

// RunInstance is the one-shot entry point for an isolated simulation
// instance: it builds an engine over procs and runs it for maxRounds.
// Nothing in the engine or its result is shared with any other instance
// (callers supply per-instance processes, counters, and entropy), so
// independent RunInstance calls may execute concurrently — the campaign
// engine's worker shards rely on exactly that.
func RunInstance(cfg model.Config, procs []Process, maxRounds int, opts ...Option) (*Result, error) {
	e, err := New(cfg, procs, opts...)
	if err != nil {
		return nil, err
	}
	return e.Run(maxRounds), nil
}

// declared sums what the processes declare for round over inboxes.
func (e *Engine) declared(round int, inboxes [][]model.Message) int {
	work := 0
	for i, p := range e.procs {
		work += DeclaredWork(p, round, inboxes[i])
	}
	return work
}

// allFinished reports whether every Finisher process is done. Processes
// that do not implement Finisher do not block early exit: with no traffic
// in flight they can never act again anyway.
func (e *Engine) allFinished() bool {
	for _, p := range e.procs {
		if f, ok := p.(Finisher); ok && !f.Finished() {
			return false
		}
	}
	return true
}

// SortMessages orders messages deterministically by sender, then kind,
// then payload, so runs are reproducible regardless of arrival order. The
// engine applies it to every inbox; the transport runner does the same so
// socket runs match simulator runs exactly. The engine fills an inbox in
// ascending sender order, so on an ideal network it arrives sorted: that
// is checked first, and a stable sort of sorted input changes nothing.
func SortMessages(msgs []model.Message) {
	if slices.IsSortedFunc(msgs, compareMessages) {
		return
	}
	slices.SortStableFunc(msgs, compareMessages)
}

// compareMessages is SortMessages' order: sender, then kind, then payload.
func compareMessages(a, b model.Message) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	return bytes.Compare(a.Payload, b.Payload)
}

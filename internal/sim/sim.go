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
// Determinism: processes are stepped in node-ID order and inboxes are
// sorted by sender, so a run is a pure function of (processes, seeds).
// Every table of package experiments is therefore exactly reproducible.
package sim

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

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
	// the messages immediately). Symmetrically, the engine may
	// reuse received's backing array after Step returns, so a process must
	// not retain the slice itself across rounds; the Payload bytes are
	// never modified and are safe to alias.
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
	// rounds is tracer when it also implements RoundTracer, resolved
	// once at option time so Run pays no per-round type assertions.
	rounds RoundTracer
	// net, when non-nil, decides per-message delivery fates; nil is the
	// ideal synchronous network and keeps Run on its original path.
	net Network
}

// Option configures an Engine.
type Option func(*Engine)

// WithTracer attaches a trace sink that observes every delivered
// message — and, when t also implements RoundTracer, every round
// boundary.
func WithTracer(t Tracer) Option {
	return func(e *Engine) {
		e.tracer = t
		e.rounds, _ = t.(RoundTracer)
	}
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
func (e *Engine) Run(maxRounds int) *Result {
	if maxRounds < 1 {
		maxRounds = 1
	}
	// Per-node inboxes, double-buffered: inFlight holds this round's
	// deliveries, next collects the sends. Both keep their backing arrays
	// across rounds (truncate, don't reallocate), which is what keeps a
	// long run allocation-flat; delivery order is unchanged (appends happen
	// in the same order the map version produced, and every inbox is sorted
	// before delivery anyway), so seeded runs are byte-identical.
	inFlight := make([][]model.Message, e.cfg.N)
	next := make([][]model.Message, e.cfg.N)
	// delayed is the virtual-clock delivery queue, keyed by delivery
	// round; it exists only under a network-condition model, so the
	// ideal path allocates nothing extra.
	var delayed map[int][]model.Message
	pending := 0
	if e.net != nil {
		delayed = make(map[int][]model.Message)
	}
	rounds := 0
	for round := 1; round <= maxRounds; round++ {
		rounds = round
		if e.rounds != nil {
			e.rounds.RoundStart(round)
		}
		for i := range next {
			next[i] = next[i][:0]
		}
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
		sentAny := false
		sent := 0
		for i, p := range e.procs {
			id := model.NodeID(i)
			inbox := inFlight[i]
			SortMessages(inbox)
			for _, m := range inbox {
				if e.tracer != nil {
					e.tracer.Delivered(m)
				}
			}
			out := p.Step(round, inbox)
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
						sent++
						continue
					case d > 0:
						// Restamped as if sent d rounds later — the same
						// stamp the transport runner puts on the wire, so
						// receiver views match the socket path exactly.
						m.Round = round + d
						e.count.Record(m)
						sentAny = true
						sent++
						delayed[round+1+d] = append(delayed[round+1+d], m)
						pending++
						continue
					}
				}
				e.count.Record(m)
				sentAny = true
				sent++
				next[m.To] = append(next[m.To], m)
			}
		}
		if e.rounds != nil {
			e.rounds.RoundEnd(round, sent)
		}
		inFlight, next = next, inFlight
		if !sentAny && pending == 0 && e.allFinished() {
			break
		}
	}
	return &Result{Rounds: rounds, Counters: e.count}
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

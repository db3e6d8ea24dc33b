// Package adversary implements Byzantine behaviours used to test the
// paper's theorems. The model places no restriction on faulty nodes
// beyond the network's ground rules: they cannot spoof their identity as
// immediate sender (N2, enforced by the simulator), they cannot block
// other nodes' messages (N1), and they cannot forge signatures they do
// not hold (S1–S3). Everything else — silence, lies, equivocation,
// collusion, key sharing, mixed key distribution — is fair game.
//
// Every attacker is a filter: a corrupt node is its CORRECT process under
// a behavior stack that distorts its outbox (drop, delay, redirect,
// tamper, inject, show a second face, forward what it received). Wrapped
// is the one process type here; fd.go and keydist.go compose the named
// attacks of E5–E7 from the filters below.
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - LyingEcho: a fault injector the unit tests of adversary, core and fd compose.
package adversary

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// Filter transforms the outbox of a wrapped process each round, given
// the round's inbox too: a filter may forward what the node received. A
// Filter is the stateless special case of Behavior: it never buffers
// messages across rounds.
type Filter func(round int, in, out []model.Message) []model.Message

// Apply implements Behavior.
func (f Filter) Apply(round int, in, out []model.Message) []model.Message { return f(round, in, out) }

// Holding implements Behavior; a plain Filter never buffers messages.
func (Filter) Holding() bool { return false }

// Behavior is a composable outbox transformer with observable buffering
// state: the strategy layer's unit of composition. Filter implements it
// for the stateless cases; stateful behaviors (Delayer) report through
// Holding whether they still hold messages that have not been released,
// which keeps the wrapping process alive (Finished() == false) until the
// buffered traffic has drained.
type Behavior interface {
	// Apply transforms one round's outbox, exactly like Filter.
	Apply(round int, in, out []model.Message) []model.Message
	// Holding reports whether the behavior buffers messages that later
	// Apply calls will still release.
	Holding() bool
}

// Wrapped runs an inner process and applies a chain of behaviors to every
// outbox. The inner process's inbox is untouched: a Byzantine node sees
// everything sent to it, and so does every behavior.
type Wrapped struct {
	inner     sim.Process
	behaviors []Behavior
}

var _ sim.Process = (*Wrapped)(nil)

// Wrap builds a filtered process. Filters apply in order.
func Wrap(inner sim.Process, filters ...Filter) *Wrapped {
	behaviors := make([]Behavior, len(filters))
	for i, f := range filters {
		behaviors[i] = f
	}
	return WrapBehaviors(inner, behaviors...)
}

// WrapBehaviors builds a process whose outbox passes through the given
// behavior stack in order. Use it over Wrap when the stack contains
// stateful behaviors (Delayer): their Holding state is what keeps the
// wrapped process unfinished until every buffered message is released.
func WrapBehaviors(inner sim.Process, behaviors ...Behavior) *Wrapped {
	return &Wrapped{inner: inner, behaviors: behaviors}
}

// Step implements sim.Process.
func (w *Wrapped) Step(round int, received []model.Message) []model.Message {
	out := w.inner.Step(round, received)
	for _, b := range w.behaviors {
		out = b.Apply(round, received, out)
	}
	return out
}

// Work implements sim.Worker: the inner process's declaration. Filters
// run on the engine's goroutine or a helper alike, so they must be safe
// for concurrent use across nodes (a shared signer is).
func (w *Wrapped) Work(round int, received []model.Message) int {
	return sim.DeclaredWork(w.inner, round, received)
}

// Finished implements sim.Finisher: done only when the inner process is
// done AND no behavior still buffers undelivered messages. The engine
// therefore keeps stepping a finished inner process while a Delayer holds
// traffic, which is the flush path that stops delayed messages from being
// silently dropped when the inner protocol completes early.
func (w *Wrapped) Finished() bool {
	for _, b := range w.behaviors {
		if b.Holding() {
			return false
		}
	}
	if f, ok := w.inner.(sim.Finisher); ok {
		return f.Finished()
	}
	return true
}

// DropAll silences the node from the given round on (crash fault).
func DropAll(fromRound int) Filter {
	return func(round int, _, out []model.Message) []model.Message {
		if round >= fromRound {
			return nil
		}
		return out
	}
}

// DropTo suppresses messages to the given victims: the "split" primitive —
// e.g. a disseminator that withholds the chain from part of the tail.
func DropTo(victims model.NodeSet) Filter {
	return func(_ int, _, out []model.Message) []model.Message {
		kept := out[:0]
		for _, m := range out {
			if !victims.Contains(m.To) {
				kept = append(kept, m)
			}
		}
		return kept
	}
}

// TamperPayload rewrites the payload of every message matching kind.
// mutate receives the original buffer and must not write to it: a
// broadcast shares one payload among its recipients, and a chain's
// payload is the sig.Chain's own encoding (Marshal returns it read-only).
// A mutation returns a new buffer instead (FlipByte copies).
func TamperPayload(kind model.MessageKind, mutate func([]byte) []byte) Filter {
	return func(_ int, _, out []model.Message) []model.Message {
		for i := range out {
			if out[i].Kind == kind {
				out[i].Payload = mutate(out[i].Payload)
			}
		}
		return out
	}
}

// FlipByte is a convenient payload mutation: it returns a copy with one
// bit of the byte at index i (modulo length) flipped, voiding any
// signature over the payload. The original buffer — which a protocol may
// broadcast to many recipients — is never written.
func FlipByte(i int) func([]byte) []byte {
	return func(p []byte) []byte {
		if len(p) == 0 {
			return p
		}
		cp := append([]byte(nil), p...)
		cp[i%len(cp)] ^= 0x01
		return cp
	}
}

// Delayer holds every outgoing message back a fixed number of rounds
// before releasing it: in a synchronous protocol a late message is
// exactly as much of a deviation as a forged one, and receivers must
// treat it so.
//
// A Delayer is stateful: Holding reports buffered traffic, so a process
// wrapped via WrapBehaviors stays unfinished until the last held message
// is released — the engine keeps stepping it and the messages flush
// instead of being dropped when the inner protocol completes early.
// Messages still held when the engine's round bound expires ARE lost:
// delivery past the protocol deadline has no meaning in the synchronous
// model, and the silence is itself discoverable by receivers.
type Delayer struct {
	rounds int
	held   map[int][]model.Message
}

var _ Behavior = (*Delayer)(nil)

// DelayBy builds a Delayer that releases each round's outbox `rounds`
// rounds later.
func DelayBy(rounds int) *Delayer {
	return &Delayer{rounds: rounds, held: make(map[int][]model.Message)}
}

// Apply implements Behavior: it buffers this round's outbox and releases
// the messages that were due this round.
func (d *Delayer) Apply(round int, _, out []model.Message) []model.Message {
	if len(out) > 0 {
		d.held[round+d.rounds] = append(d.held[round+d.rounds], out...)
	}
	release := d.held[round]
	delete(d.held, round)
	return release
}

// Holding implements Behavior: true while any message awaits release.
func (d *Delayer) Holding() bool { return len(d.held) > 0 }

// InjectAt adds fabricated messages to the outbox of the given round.
func InjectAt(round int, msgs ...model.Message) Filter {
	return func(r int, _, out []model.Message) []model.Message {
		if r == round {
			return append(out, msgs...)
		}
		return out
	}
}

// FloodTo appends, for each victim in order, one copy of every message
// in the original outbox: a node that leaks protocol traffic to an
// accomplice or spams victims with duplicates. Every victim receives
// exactly one copy of each original message.
func FloodTo(victims []model.NodeID) Filter {
	return func(_ int, _, out []model.Message) []model.Message {
		orig := len(out)
		for _, v := range victims {
			for i := 0; i < orig; i++ {
				cp := out[i]
				cp.To = v
				out = append(out, cp)
			}
		}
		return out
	}
}

// TwoFaced models a node that shows different faces to different peers:
// messages to faceOne pass untouched while messages to everyone else have
// their payload rewritten through mutate, under TamperPayload's rule. It
// is the one equivocation primitive, and with faceOne empty the one
// tamper-everything primitive. A two-faced sender's mutate returns
// a constant — the payload its correct process sends for a second value
// — and a two-faced relay's (FlipByte) a payload no failure-free run
// produces, so receivers on that side can discover it.
func TwoFaced(faceOne model.NodeSet, mutate func([]byte) []byte) Filter {
	return func(_ int, _, out []model.Message) []model.Message {
		for i := range out {
			if !faceOne.Contains(out[i].To) {
				out[i].Payload = mutate(out[i].Payload)
			}
		}
		return out
	}
}

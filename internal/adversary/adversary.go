// Package adversary implements Byzantine behaviours used to test the
// paper's theorems. The model places no restriction on faulty nodes
// beyond the network's ground rules: they cannot spoof their identity as
// immediate sender (N2, enforced by the simulator), they cannot block
// other nodes' messages (N1), and they cannot forge signatures they do
// not hold (S1–S3). Everything else — silence, lies, equivocation,
// collusion, key sharing, mixed key distribution — is fair game, and each
// has a constructor here.
//
// Production fault wiring is filters only: a corrupt node is its CORRECT
// process under a behavior stack that distorts its outbox (drop, delay,
// redirect, tamper, inject, show a second face), and a two-faced sender
// is its protocol's own sender under TwoFaced or InjectAt; so are the
// key-distribution attackers that claim, mix or share keys (ForeignClaim,
// KeyFaces). The bespoke processes of fd.go and keydist.go serve
// experiments and tests only, each for what no filter over its correct
// process can do: re-sign a chain (ResignRelay), sign a wrong assignee
// (WrongNameRelay), echo with nothing received (LyingEchoer), and relay
// challenges in key distribution (ChallengeRelayNode).
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - OnlyTo, DuplicateTo, LyingEchoer and its methods: fault injectors the unit tests of adversary, core, ba and fd compose.
package adversary

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// Filter transforms the outbox of a wrapped process each round. A Filter
// is the stateless special case of Behavior: it never buffers messages
// across rounds.
type Filter func(round int, out []model.Message) []model.Message

// Apply implements Behavior.
func (f Filter) Apply(round int, out []model.Message) []model.Message { return f(round, out) }

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
	Apply(round int, out []model.Message) []model.Message
	// Holding reports whether the behavior buffers messages that later
	// Apply calls will still release.
	Holding() bool
}

// Wrapped runs an inner process and applies a chain of behaviors to every
// outbox. The inner process's inbox is untouched: a Byzantine node sees
// everything sent to it.
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
		out = b.Apply(round, out)
	}
	return out
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
	return func(round int, out []model.Message) []model.Message {
		if round >= fromRound {
			return nil
		}
		return out
	}
}

// DropTo suppresses messages to the given victims: the "split" primitive —
// e.g. a disseminator that withholds the chain from part of the tail.
func DropTo(victims model.NodeSet) Filter {
	return func(_ int, out []model.Message) []model.Message {
		kept := out[:0]
		for _, m := range out {
			if !victims.Contains(m.To) {
				kept = append(kept, m)
			}
		}
		return kept
	}
}

// OnlyTo suppresses messages to everyone except the chosen recipients.
func OnlyTo(recipients model.NodeSet) Filter {
	return func(_ int, out []model.Message) []model.Message {
		kept := out[:0]
		for _, m := range out {
			if recipients.Contains(m.To) {
				kept = append(kept, m)
			}
		}
		return kept
	}
}

// TamperPayload rewrites the payload of every message matching kind.
// The mutation receives the original buffer and must not write to it
// (FlipByte copies).
func TamperPayload(kind model.MessageKind, mutate func([]byte) []byte) Filter {
	return func(_ int, out []model.Message) []model.Message {
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

// DuplicateTo appends a copy of each outgoing message redirected to extra,
// modelling a node that leaks protocol traffic to an accomplice or spams a
// victim with duplicates.
func DuplicateTo(extra model.NodeID) Filter {
	return func(_ int, out []model.Message) []model.Message {
		dup := make([]model.Message, 0, len(out))
		for _, m := range out {
			cp := m
			cp.To = extra
			dup = append(dup, cp)
		}
		return append(out, dup...)
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
func (d *Delayer) Apply(round int, out []model.Message) []model.Message {
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
	return func(r int, out []model.Message) []model.Message {
		if r == round {
			return append(out, msgs...)
		}
		return out
	}
}

// FloodTo appends, for each victim in order, one copy of every message
// in the original outbox. Unlike stacking one DuplicateTo per victim —
// where each later filter re-copies the duplicates the earlier ones just
// appended, giving victim k 2^(k-1) copies — every victim receives
// exactly one copy of each original message.
func FloodTo(victims []model.NodeID) Filter {
	return func(_ int, out []model.Message) []model.Message {
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

// TamperAll rewrites the payload of every outgoing message regardless of
// kind, under TamperPayload's rule: mutate must not write to the buffer
// it is given.
func TamperAll(mutate func([]byte) []byte) Filter {
	return func(_ int, out []model.Message) []model.Message {
		for i := range out {
			out[i].Payload = mutate(out[i].Payload)
		}
		return out
	}
}

// TwoFaced models a node that shows different faces to different peers:
// messages to faceOne pass untouched while messages to everyone else have
// their payload rewritten through mutate, under TamperPayload's rule. It
// is the one equivocation primitive. A two-faced sender's mutate returns
// a constant — the payload its correct process sends for a second value
// — and a two-faced relay's (FlipByte) a payload no failure-free run
// produces, so receivers on that side can discover it.
func TwoFaced(faceOne model.NodeSet, mutate func([]byte) []byte) Filter {
	return func(_ int, out []model.Message) []model.Message {
		for i := range out {
			if !faceOne.Contains(out[i].To) {
				out[i].Payload = mutate(out[i].Payload)
			}
		}
		return out
	}
}

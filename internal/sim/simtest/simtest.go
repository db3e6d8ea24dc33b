// Package simtest is the differential harness of the reference-oracle
// suites, imported only by tests. It records processes round by round
// and compares two recordings, or two sim.RecordingTracer logs, to their
// first divergence: round, node, message index and field. It runs
// nothing: a suite steps its processes itself or through core.Cluster.
// Reader decodes fuzz inputs; Mutant plants the byte flip each suite
// must catch.
package simtest

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// Step is one round of a process: its outbox (payloads cloned), its
// Finished after the round, and its outcomes and probe when recorded.
type Step struct {
	Out      []model.Message
	Finished bool
	Outcomes []model.Outcome
	Probe    int
}

// Recorder is a process that appends a Step per round to Steps.
type Recorder struct {
	inner sim.Process
	n     int
	probe func() int
	plant Mutant
	Steps []Step
}

// Record wraps p; each step also reads Outcomes(p, n) if n > 0 and probe
// if it is non-nil.
func Record(p sim.Process, n int, probe func() int) *Recorder {
	return &Recorder{inner: p, n: n, probe: probe}
}

// Step implements sim.Process.
func (r *Recorder) Step(round int, in []model.Message) []model.Message {
	s := Step{Out: slices.Clone(r.inner.Step(round, in))}
	for k, m := range s.Out {
		s.Out[k].Payload = bytes.Clone(m.Payload)
		if pl := s.Out[k].Payload; round == r.plant.Round && k == r.plant.Msg && len(pl) > 0 {
			pl[len(pl)-1] ^= 1
		}
	}
	s.Finished = r.Finished()
	if r.n > 0 {
		s.Outcomes = Outcomes(r.inner, r.n)
	}
	if r.probe != nil {
		s.Probe = r.probe()
	}
	r.Steps = append(r.Steps, s)
	return s.Out
}

// Finished reads the process as the engine does.
func (r *Recorder) Finished() bool {
	f, ok := r.inner.(sim.Finisher)
	return !ok || f.Finished()
}

// Outcomes reads a node's outcome, or a vector node's n, through a
// Mutant; nil if none.
func Outcomes(p sim.Process, n int) []model.Outcome {
	switch p := p.(type) {
	case *Recorder:
		return Outcomes(p.inner, n)
	case interface{ Outcome() model.Outcome }:
		return []model.Outcome{p.Outcome()}
	case interface {
		Outcome(model.NodeID) model.Outcome
	}:
		out := make([]model.Outcome, n)
		for s := range out {
			out[s] = p.Outcome(model.NodeID(s))
		}
		return out
	}
	return nil
}

// Options are a suite's own rules. Outcomes compare whole, a discovery
// by its text. Verdicts compares them by node, decision, and discovery
// round and reason instead; LooseCause then
// lets the node under test name a bad chain by its cause (an unknown
// key, a bad signature). FinishedAtEnd's Finished counts at the end only.
type Options struct {
	Verdicts, LooseCause bool
	FinishedAtEnd        model.NodeSet
}

// Divergence is where two runs first differ. Message is -1 unless one
// message differs, and is then its index among what Node sent in Round.
type Divergence struct {
	Node, Round, Message int
	Field                string
	Got, Want            any
}

// Error implements error.
func (d *Divergence) Error() string {
	return fmt.Sprintf("P%d round %d message %d: %s %v, reference %v", d.Node, d.Round, d.Message, d.Field, d.Got, d.Want)
}

// Compare walks two runs' recorders by node (nil: not recorded) round by
// round, and returns the first step whose outbox (To, Kind, payload
// bytes, in order), Finished, outcomes or probe differ.
func Compare(got, want []*Recorder, opts Options) error {
	for r, more := 0, true; more; r++ {
		more = false
		for id := range want {
			var g, w *Step
			if got[id] != nil && r < len(got[id].Steps) {
				g = &got[id].Steps[r]
			}
			if want[id] != nil && r < len(want[id].Steps) {
				w = &want[id].Steps[r]
			}
			at := func(k int, field string, got, want any) error {
				return &Divergence{Node: id, Round: r + 1, Message: k, Field: field, Got: got, Want: want}
			}
			if g == nil || w == nil || len(g.Out) != len(w.Out) {
				if g != w {
					return at(-1, "step", g, w)
				}
				continue
			}
			more = true
			for k, m := range w.Out {
				if f := messageField(g.Out[k], m, false); f != "" {
					return at(k, f, g.Out[k], m)
				}
			}
			last := r == len(want[id].Steps)-1
			switch {
			case g.Finished != w.Finished && (last || !opts.FinishedAtEnd.Contains(model.NodeID(id))):
				return at(-1, "Finished", g.Finished, w.Finished)
			case !sameOutcomes(g.Outcomes, w.Outcomes, opts):
				return at(-1, "outcomes", g.Outcomes, w.Outcomes)
			case g.Probe != w.Probe:
				return at(-1, "probe", g.Probe, w.Probe)
			}
		}
	}
	return nil
}

// messageField names how two messages differ (From and Round if stamped).
func messageField(g, w model.Message, stamped bool) string {
	switch {
	case g.To != w.To || g.Kind != w.Kind || stamped && (g.From != w.From || g.Round != w.Round):
		return "header"
	case !bytes.Equal(g.Payload, w.Payload):
		return "payload"
	}
	return ""
}

func sameOutcomes(got, want []model.Outcome, opts Options) bool {
	return slices.EqualFunc(got, want, func(g, w model.Outcome) bool {
		gd, wd := g.Discovery, w.Discovery
		if !opts.Verdicts {
			// A discovery is compared by what it says: one that formats
			// its detail when read equals an oracle's fixed text.
			g.Discovery, w.Discovery = nil, nil
			return reflect.DeepEqual(g, w) && (gd == nil) == (wd == nil) && (gd == nil || gd.String() == wd.String())
		}
		same := g.Node == w.Node && g.Decided == w.Decided && bytes.Equal(g.Value, w.Value) && (gd == nil) == (wd == nil)
		if !same || gd == nil {
			return same
		}
		cause := opts.LooseCause && wd.Reason == model.ReasonBadChain && (gd.Reason == model.ReasonUnknownKey || gd.Reason == model.ReasonBadSignature)
		return gd.Round == wd.Round && (gd.Reason == wd.Reason || cause)
	})
}

// Traffic compares two delivery logs message by message (From, To,
// Round, Kind, payload bytes) in order, or in one canonical order if
// sorted: a mesh delivers a round in no fixed order. A message index
// restarts where Round falls back, at the next run in one log.
func Traffic(got, want []model.Message, sorted bool) error {
	if sorted {
		got, want = slices.SortedFunc(slices.Values(got), compareMessages), slices.SortedFunc(slices.Values(want), compareMessages)
	}
	sent := make(map[[2]int]int)
	for i := 0; i < len(got) && i < len(want); i++ {
		if i > 0 && got[i].Round < got[i-1].Round {
			clear(sent)
		}
		key := [2]int{int(got[i].From), got[i].Round}
		if f := messageField(got[i], want[i], true); f != "" {
			return &Divergence{Node: key[0], Round: key[1], Message: sent[key], Field: f, Got: got[i], Want: want[i]}
		}
		sent[key]++
	}
	return Equal("messages delivered", len(got), len(want))
}

func compareMessages(a, b model.Message) int {
	return cmp.Or(cmp.Compare(a.Round, b.Round), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To),
		cmp.Compare(a.Kind, b.Kind), bytes.Compare(a.Payload, b.Payload))
}

// Equal fails a whole-run field that differs (reflect.DeepEqual).
func Equal(field string, got, want any) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	return fmt.Errorf("%s %v, reference %v", field, got, want)
}

// Reader reads a fuzz input a byte at a time, and zero past its end.
type Reader []byte

// Next returns the next byte.
func (r *Reader) Next() int {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return int(c)
}

// Mutant plants a fault: node Node sends message Msg of round Round with
// its last payload byte flipped. The zero Mutant plants nothing.
type Mutant struct{ Node, Round, Msg int }

// Wrap returns node id's process p, under m if id is m.Node.
func (m Mutant) Wrap(id int, p sim.Process) sim.Process {
	if m.Round == 0 || id != m.Node {
		return p
	}
	return &Recorder{inner: p, plant: m}
}

// Caught fails t unless err is m's flip, named by node, round and message.
func (m Mutant) Caught(t testing.TB, err error) {
	t.Helper()
	if d, ok := err.(*Divergence); !ok || d.Node != m.Node || d.Round != m.Round || d.Message != m.Msg || d.Field != "payload" {
		t.Fatalf("planted %+v: the differential reports %v", m, err)
	}
}

package simtest

import (
	"testing"

	"repro/internal/model"
)

// recorded is one node's run of the given steps.
func recorded(steps ...Step) []*Recorder { return []*Recorder{{Steps: steps}} }

// TestCompareRules pins the suite rules Options carries: a whole compare
// reads a discovery's text, not the fields it is formatted from, a
// verdict ignores a discovery's node and detail, the loose cause is one-sided,
// and a FinishedAtEnd node's Finished counts at its last step only.
func TestCompareRules(t *testing.T) {
	discovery := func(reason model.FailureReason, detail string) Step {
		return Step{Outcomes: []model.Outcome{{Node: 1, Discovery: &model.Discovery{Node: 1, Round: 3, Reason: reason, Fact: text(detail)}}}}
	}
	// lazy states the detail "P2 said so" from its fields, as producers do.
	lazy := Step{Outcomes: []model.Outcome{{Node: 1, Discovery: &model.Discovery{Node: 1, Round: 3, Reason: model.ReasonBadChain, Peer: 2, Fact: peerSaid{}}}}}
	bad, key := model.ReasonBadChain, model.ReasonUnknownKey
	for _, tc := range []struct {
		name      string
		got, want Step
		opts      Options
		same      bool
	}{
		{"detail, whole", discovery(bad, "a"), discovery(bad, "b"), Options{}, false},
		{"detail, verdict", discovery(bad, "a"), discovery(bad, "b"), Options{Verdicts: true}, true},
		{"facts against text, whole", lazy, discovery(bad, "P2 said so"), Options{}, true},
		{"facts against other text, whole", lazy, discovery(bad, "P3 said so"), Options{}, false},
		{"cause, strict", discovery(key, ""), discovery(bad, ""), Options{Verdicts: true}, false},
		{"cause, loose", discovery(key, ""), discovery(bad, ""), Options{Verdicts: true, LooseCause: true}, true},
		{"cause, loose the other way", discovery(bad, ""), discovery(key, ""), Options{Verdicts: true, LooseCause: true}, false},
		{"probe", Step{Probe: 1}, Step{Probe: 2}, Options{}, false},
	} {
		if err := Compare(recorded(tc.got), recorded(tc.want), tc.opts); (err == nil) != tc.same {
			t.Errorf("%s: Compare = %v, want same=%v", tc.name, err, tc.same)
		}
	}
	early, late := recorded(Step{Finished: true}, Step{}), recorded(Step{}, Step{})
	if err := Compare(early, late, Options{FinishedAtEnd: model.NewNodeSet(0)}); err != nil {
		t.Errorf("FinishedAtEnd, first step: %v", err)
	}
	if err := Compare(late, recorded(Step{}, Step{Finished: true}), Options{FinishedAtEnd: model.NewNodeSet(0)}); err == nil {
		t.Error("FinishedAtEnd, last step: no divergence")
	}
}

// TestTrafficNamesTheSendersMessage: the index is among what the sender
// sent that round, in the compared order, and restarts with a log's next run.
func TestTrafficNamesTheSendersMessage(t *testing.T) {
	msg := func(from, to model.NodeID, round int, b byte) model.Message {
		return model.Message{From: from, To: to, Round: round, Payload: []byte{b}}
	}
	// Two runs: P0 and P1 in rounds 1 and 2, then P0 again in round 1.
	want := []model.Message{msg(0, 1, 1, 0), msg(1, 2, 1, 0), msg(0, 2, 2, 0), msg(0, 1, 1, 0), msg(0, 2, 1, 0)}
	got := []model.Message{msg(0, 1, 1, 0), msg(1, 2, 1, 0), msg(0, 2, 2, 0), msg(0, 1, 1, 0), msg(0, 2, 1, 1)}
	m := Mutant{Node: 0, Round: 1, Msg: 1}
	m.Caught(t, Traffic(got, want, false))
	// Sorted, the runs merge: P0 sent three round-1 messages, the last to P2.
	m.Msg = 2
	m.Caught(t, Traffic(got, want, true))
	if err := Traffic(got[:4], want, false); err == nil {
		t.Error("a missing message: no divergence")
	}
}

// text is a discovery sentence fixed in advance, as the oracles write it.
type text string

func (s text) Detail(model.Discovery) string { return string(s) }

// peerSaid is a sentence formatted from a discovery's fields when read.
type peerSaid struct{}

func (peerSaid) Detail(d model.Discovery) string { return d.Peer.String() + " said so" }

package model

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNodeIDString(t *testing.T) {
	if got := NodeID(3).String(); got != "P3" {
		t.Errorf("String = %q", got)
	}
	if got := NoNode.String(); got != "P(none)" {
		t.Errorf("NoNode.String = %q", got)
	}
}

func TestNodeIDValid(t *testing.T) {
	cases := []struct {
		id   NodeID
		n    int
		want bool
	}{
		{0, 4, true}, {3, 4, true}, {4, 4, false}, {-1, 4, false}, {NoNode, 100, false},
	}
	for _, c := range cases {
		if got := c.id.Valid(c.n); got != c.want {
			t.Errorf("(%v).Valid(%d) = %v, want %v", c.id, c.n, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	valid := []Config{{N: 2, T: 0}, {N: 4, T: 3}, {N: 100, T: 0}}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	invalid := []Config{{N: 0, T: 0}, {N: 1, T: 0}, {N: 4, T: -1}, {N: 4, T: 4}, {N: 4, T: 9}}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
}

func TestConfigNodes(t *testing.T) {
	nodes := Config{N: 3, T: 0}.Nodes()
	if len(nodes) != 3 || nodes[0] != 0 || nodes[2] != 2 {
		t.Errorf("Nodes = %v", nodes)
	}
}

func TestViewReceived(t *testing.T) {
	v := View{Node: 1, Rounds: [][]Message{
		{{From: 0, To: 1, Kind: KindPlainValue}},
		nil,
		{{From: 2, To: 1}, {From: 3, To: 1}},
	}}
	if v.Len() != 3 {
		t.Fatalf("Len = %d", v.Len())
	}
	if got := len(v.Received(1)); got != 1 {
		t.Errorf("round 1: %d messages", got)
	}
	if got := len(v.Received(2)); got != 0 {
		t.Errorf("round 2: %d messages", got)
	}
	if got := len(v.Received(3)); got != 2 {
		t.Errorf("round 3: %d messages", got)
	}
	if v.Received(0) != nil || v.Received(4) != nil {
		t.Error("out-of-range round returned non-nil")
	}
}

func TestNodeSet(t *testing.T) {
	s := NewNodeSet(3, 1)
	if !s.Contains(1) || !s.Contains(3) || s.Contains(2) {
		t.Errorf("membership wrong: %v", s)
	}
	s.Add(2)
	got := s.Sorted()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Sorted = %v", got)
	}
	if s.String() != "{P1,P2,P3}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestMessageKindStrings(t *testing.T) {
	kinds := []MessageKind{
		KindInvalid, KindTestPredicate, KindChallenge, KindChallengeResponse,
		KindChainValue, KindPlainValue, KindEcho, KindOral, KindSigned,
		KindFault, KindFaultEcho, KindFallback,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(MessageKind(200).String(), "kind(") {
		t.Error("unknown kind has no fallback rendering")
	}
}

func TestFailureReasonStrings(t *testing.T) {
	reasons := []FailureReason{
		ReasonNone, ReasonBadSignature, ReasonBadChain, ReasonWrongSender,
		ReasonMissingMessage, ReasonUnexpectedMessage, ReasonValueMismatch,
		ReasonBadFormat, ReasonUnknownKey, ReasonProtocol,
	}
	seen := map[string]bool{}
	for _, r := range reasons {
		s := r.String()
		if s == "" || seen[s] {
			t.Errorf("reason %d has bad/duplicate string %q", r, s)
		}
		seen[s] = true
	}
}

func TestOutcomeString(t *testing.T) {
	o := Outcome{Node: 2, Decided: true, Value: []byte("v")}
	if !strings.Contains(o.String(), "decided") {
		t.Errorf("decided outcome string: %q", o)
	}
	d := Discovery{Node: 2, Round: 3, Reason: ReasonBadChain, Detail: "x"}
	o = Outcome{Node: 2, Discovery: &d}
	if !strings.Contains(o.String(), "discovered") {
		t.Errorf("discovery outcome string: %q", o)
	}
	o = Outcome{Node: 2}
	if !strings.Contains(o.String(), "undecided") {
		t.Errorf("undecided outcome string: %q", o)
	}
}

func TestNodeSetSortedQuick(t *testing.T) {
	f := func(ids []int8) bool {
		s := NewNodeSet()
		for _, id := range ids {
			s.Add(NodeID(id))
		}
		sorted := s.Sorted()
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1] >= sorted[i] {
				return false
			}
		}
		return len(sorted) == len(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneAppend(t *testing.T) {
	base := []NodeID{0, 1, 2}
	got := CloneAppend(base, 3)
	if len(got) != 4 || got[3] != 3 {
		t.Fatalf("CloneAppend = %v, want [0 1 2 3]", got)
	}
	if cap(got) != 4 {
		t.Errorf("CloneAppend cap = %d, want exactly 4", cap(got))
	}
	got[0] = 9
	if base[0] != 0 {
		t.Error("CloneAppend result aliases its base")
	}
	if c := CloneAppend(nil); c == nil || len(c) != 0 {
		t.Errorf("CloneAppend(nil) = %v, want empty non-nil copy semantics", c)
	}
	if c := CloneAppend(base); len(c) != 3 || &c[0] == &base[0] {
		t.Error("CloneAppend without extras must still copy")
	}
}

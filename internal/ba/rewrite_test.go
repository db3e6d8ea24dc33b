package ba

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// rewriter is a faulty node that writes over the bytes it sent once the
// engine has delivered them. The engine hands a receiver the sender's own
// payload slices, so this is the sender that the one copy a receiver
// makes (sig.UnmarshalChain) keeps out. What a node sends in round r is
// read by its receivers' round r+1 steps, so from round r+2 on it is
// rewritten. The inner process sends copies, so rewriting them leaves
// its own state, and so its behaviour, as it was.
type rewriter struct {
	sim.Process
	rewrite bool
	// sent[r] holds the payloads sent in round r.
	sent      [][][]byte
	rewritten int
}

func (w *rewriter) Step(round int, received []model.Message) []model.Message {
	if w.rewrite {
		for r := 0; r < round-1 && r < len(w.sent); r++ {
			w.rewriteRound(r)
		}
	}
	inner := w.Process.Step(round, received)
	out := make([]model.Message, len(inner))
	for len(w.sent) <= round {
		w.sent = append(w.sent, nil)
	}
	for i, m := range inner {
		m.Payload = bytes.Clone(m.Payload)
		out[i] = m
		w.sent[round] = append(w.sent[round], m.Payload)
	}
	return out
}

func (w *rewriter) Finished() bool { return w.Process.(sim.Finisher).Finished() }

func (w *rewriter) rewriteRound(r int) {
	for _, p := range w.sent[r] {
		for i := range p {
			p[i] = 0xee
		}
		w.rewritten += len(p)
	}
	w.sent[r] = nil
}

// TestRewrittenSentBytesLeaveReceiversUnchanged: whatever a faulty node
// does to the bytes it sent after they were delivered, every correct
// node's outcome (value and discovery text) and what it keeps beside it —
// evidence chain, held values, best evidence — read the same as in the
// run where nobody rewrote anything. A correct node keeps accepted values
// where it parsed them, so this holds because a parse copies once.
func TestRewrittenSentBytesLeaveReceiversUnchanged(t *testing.T) {
	f := newDedupeFixture(t, sig.SchemeEd25519, 7, 2, 4701)
	value := []byte("value")
	type protocol struct {
		name   string
		rounds int
		build  func(id model.NodeID) (sim.Process, error)
	}
	protocols := []protocol{
		{"chain", fd.ChainEngineRounds(f.cfg.T), func(id model.NodeID) (sim.Process, error) {
			var opts []fd.ChainOption
			if id == Sender {
				opts = append(opts, fd.WithValue(value))
			}
			return fd.NewChainNode(f.cfg, id, f.signers[id], f.dir, opts...)
		}},
		{"vector", fd.ChainEngineRounds(f.cfg.T), func(id model.NodeID) (sim.Process, error) {
			return fd.NewVectorNode(f.cfg, id, f.signers[id], f.dir, fmt.Appendf(nil, "proposal-%d", id))
		}},
		{"smallrange", fd.ChainEngineRounds(f.cfg.T), func(id model.NodeID) (sim.Process, error) {
			var opts []fd.SmallRangeOption
			if id == Sender {
				opts = append(opts, fd.WithBinaryValue(1))
			}
			return fd.NewSmallRangeNode(f.cfg, id, f.signers[id], f.dir, opts...)
		}},
		{"sm", SMEngineRounds(f.cfg.T), func(id model.NodeID) (sim.Process, error) {
			var opts []SMOption
			if id == Sender {
				opts = append(opts, WithSMValue(value))
			}
			return NewSMNode(f.cfg, id, f.signers[id], f.dir, opts...)
		}},
		{"fdba", FDBAEngineRounds(f.cfg.T), func(id model.NodeID) (sim.Process, error) {
			return NewFDBANode(f.cfg, id, f.signers[id], f.dir, value)
		}},
	}
	// Each faulty node runs its correct process under these filters and
	// rewrites what it sent. The second set crashes relay P_1, which sends
	// fdba into its fallback flood.
	faults := []struct {
		name   string
		faulty map[model.NodeID][]adversary.Filter
	}{
		{"sender and disseminator rewrite", map[model.NodeID][]adversary.Filter{0: nil, 2: nil}},
		{"sender rewrites, relay crashes", map[model.NodeID][]adversary.Filter{0: nil, 1: {adversary.DropAll(2)}}},
	}
	for _, p := range protocols {
		for _, fault := range faults {
			run := func(rewrite bool) (states []string, rewritten int) {
				procs := make([]sim.Process, f.cfg.N)
				var faulty []*rewriter
				for i := range procs {
					id := model.NodeID(i)
					proc, err := p.build(id)
					if err != nil {
						t.Fatal(err)
					}
					if filters, ok := fault.faulty[id]; ok {
						w := &rewriter{Process: adversary.Wrap(proc, filters...), rewrite: rewrite}
						faulty = append(faulty, w)
						proc = w
					}
					procs[i] = proc
				}
				if _, err := sim.RunInstance(f.cfg, procs, p.rounds); err != nil {
					t.Fatal(err)
				}
				for _, w := range faulty {
					if rewrite {
						for r := range w.sent {
							w.rewriteRound(r)
						}
					}
					rewritten += w.rewritten
				}
				for i, proc := range procs {
					if _, ok := fault.faulty[model.NodeID(i)]; !ok {
						states = append(states, heldState(proc, f.cfg.N))
					}
				}
				return states, rewritten
			}
			want, _ := run(false)
			got, rewritten := run(true)
			if rewritten == 0 {
				t.Fatalf("%s, %s: the faulty nodes sent nothing to rewrite", p.name, fault.name)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s, %s: a correct node's state moved with the sender's bytes:\n got %s\nwant %s", p.name, fault.name, got[i], want[i])
				}
			}
		}
	}
}

// heldState renders what a correct node holds after a run: its
// outcome(s) — one per instance for a vector node of an n-node run — and
// the bytes it keeps beside them.
func heldState(p sim.Process, n int) string {
	var b strings.Builder
	switch node := p.(type) {
	case *fd.ChainNode:
		fmt.Fprintf(&b, "%v evidence %x", node.Outcome(), node.EvidenceChain().Marshal())
	case *fd.SmallRangeNode:
		fmt.Fprint(&b, node.Outcome())
	case *fd.VectorNode:
		for s := range n {
			fmt.Fprintf(&b, "%v; ", node.Outcome(model.NodeID(s)))
		}
	case *SMNode:
		fmt.Fprintf(&b, "%v held %q", node.Outcome(), node.ValueSet())
	case *FDBANode:
		held := make([]string, 0, len(node.flood.held))
		for v := range node.flood.held {
			held = append(held, fmt.Sprintf("%x", v))
		}
		slices.Sort(held)
		fmt.Fprintf(&b, "%v evidence %x held %v best %x", node.Outcome(), node.fdNode.EvidenceChain().Marshal(), held, node.bestValue)
	default:
		panic(fmt.Sprintf("heldState: %T", p))
	}
	return b.String()
}

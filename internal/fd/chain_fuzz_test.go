package fd_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// The differential below runs every correct slot twice — the node type
// under test and its reference twin from chain_ref_test.go — on the same
// inboxes, records both through simtest and requires the same outbox (to,
// kind, payload bytes, in order), the same Finished() and the same
// outcome (node, decision, discovery round and reason) after every step. An
// input picks the variant, n ≤ 7, t < n, one faulty slot out of the
// scenarios fd_test.go builds, the sender's bit, and a script of extra
// deliveries drawn from a bank of valid chains for every position (and,
// for the vector, every instance), each delivered as is, tampered,
// truncated or under the wrong kind, in any round from 2 on, from any
// sender, before or after the honest traffic.

const (
	variantChain = iota
	variantSmallRange
	variantVector
	variantCount
)

var variantNames = [variantCount]string{"chain", "smallrange", "vector"}

// buildVariant returns node id's correct process for variant v, or its
// reference twin when ref is set.
func buildVariant(t *testing.T, v int, f *fixture, cfg model.Config, id model.NodeID, bit byte, ref bool) sim.Process {
	t.Helper()
	var (
		p   sim.Process
		err error
	)
	signer, dir := f.signers[id], f.dirs[id]
	switch {
	case v == variantChain && ref:
		var opts []refChainOption
		if id == fd.Sender {
			opts = append(opts, refWithValue([]byte("v")))
		}
		p, err = newRefChainNode(cfg, id, signer, dir, opts...)
	case v == variantChain:
		var opts []fd.ChainOption
		if id == fd.Sender {
			opts = append(opts, fd.WithValue([]byte("v")))
		}
		p, err = fd.NewChainNode(cfg, id, signer, dir, opts...)
	case v == variantSmallRange && ref:
		var opts []refSmallRangeOption
		if id == fd.Sender {
			opts = append(opts, refWithBinaryValue(bit))
		}
		p, err = newRefSmallRangeNode(cfg, id, signer, dir, opts...)
	case v == variantSmallRange:
		var opts []fd.SmallRangeOption
		if id == fd.Sender {
			opts = append(opts, fd.WithBinaryValue(bit))
		}
		p, err = fd.NewSmallRangeNode(cfg, id, signer, dir, opts...)
	case ref:
		p, err = newRefVectorNode(cfg, id, signer, dir, proposal(id))
	default:
		p, err = fd.NewVectorNode(cfg, id, signer, dir, proposal(id))
	}
	if err != nil {
		t.Fatalf("%s node %v: %v", variantNames[v], id, err)
	}
	return p
}

func proposal(id model.NodeID) []byte { return []byte(fmt.Sprintf("from-P%d", id)) }

// chainScenario puts one faulty process in one slot; honest builds that
// slot's correct node of the variant under test.
type chainScenario struct {
	name   string
	faulty func(cfg model.Config, f *fixture, honest func(model.NodeID) sim.Process) (model.NodeID, sim.Process)
}

var chainScenarios = []chainScenario{
	{"failure-free", nil},
	{"silent relay", func(model.Config, *fixture, func(model.NodeID) sim.Process) (model.NodeID, sim.Process) {
		return 1, sim.Silent{}
	}},
	{"tampered payload", func(_ model.Config, _ *fixture, honest func(model.NodeID) sim.Process) (model.NodeID, sim.Process) {
		return 1, adversary.Wrap(honest(1), adversary.TamperPayload(model.KindChainValue, adversary.FlipByte(10)))
	}},
	{"re-signing relay", func(cfg model.Config, f *fixture, honest func(model.NodeID) sim.Process) (model.NodeID, sim.Process) {
		return 1, adversary.Wrap(honest(1), adversary.Resign(cfg, 1, f.signers[1], []byte("forged")))
	}},
	{"wrong-name relay", func(cfg model.Config, f *fixture, honest func(model.NodeID) sim.Process) (model.NodeID, sim.Process) {
		return 1, adversary.Wrap(honest(1), adversary.WrongName(f.signers[1], model.NodeID(4%cfg.N)))
	}},
	{"equivocating sender", func(cfg model.Config, f *fixture, _ func(model.NodeID) sim.Process) (model.NodeID, sim.Process) {
		return 0, f.equivocatingSender(cfg, []byte("v1"), []byte("v2"), model.NewNodeSet(0, 1, 2))
	}},
	{"split disseminator", func(cfg model.Config, _ *fixture, honest func(model.NodeID) sim.Process) (model.NodeID, sim.Process) {
		d := model.NodeID(cfg.T)
		return d, adversary.Wrap(honest(d), adversary.DropTo(model.NewNodeSet(model.NodeID(cfg.N-2), model.NodeID(cfg.N-1))))
	}},
	{"delayed relay", func(_ model.Config, _ *fixture, honest func(model.NodeID) sim.Process) (model.NodeID, sim.Process) {
		return 1, adversary.WrapBehaviors(honest(1), adversary.DelayBy(1))
	}},
	{"duplicate dissemination", func(cfg model.Config, _ *fixture, honest func(model.NodeID) sim.Process) (model.NodeID, sim.Process) {
		d := model.NodeID(cfg.T)
		return d, adversary.Wrap(honest(d), func(_ int, _, out []model.Message) []model.Message {
			if len(out) == 0 {
				return out
			}
			return append(out, out[0])
		})
	}},
}

var (
	fuzzMu       sync.Mutex
	fuzzFixtures = map[int]*fixture{}
	fuzzBanks    = map[[2]int][][]byte{}
)

// fuzzBank returns the fixture for n nodes and variant v's bank: for
// every run origin (P_0, or every node for the vector), two values and
// every chain length 1 … n, the valid chain message that position would
// receive, framed as the variant frames it. Both are built once per
// process.
func fuzzBank(t *testing.T, v, n int) (*fixture, [][]byte) {
	fuzzMu.Lock()
	defer fuzzMu.Unlock()
	f := fuzzFixtures[n]
	if f == nil {
		f = newFixture(t, n, 0, int64(900+n))
		fuzzFixtures[n] = f
	}
	if bank, ok := fuzzBanks[[2]int{v, n}]; ok {
		return f, bank
	}
	origins := []model.NodeID{fd.Sender}
	if v == variantVector {
		origins = f.cfg.Nodes()
	}
	var bank [][]byte
	for _, s := range origins {
		values := [][]byte{[]byte("v"), []byte("w")}
		switch v {
		case variantSmallRange:
			values = [][]byte{{0}, {1}, {2}}
		case variantVector:
			values = [][]byte{proposal(s), []byte("w")}
		}
		for _, value := range values {
			c, err := sig.NewChain(value, f.signers[s])
			for k := 1; k <= n && err == nil; k++ {
				if k > 1 {
					at := func(p int) model.NodeID { return model.NodeID((int(s) + p) % n) }
					c, err = c.Extend(at(k-2), f.signers[at(k-1)])
				}
				payload := c.Marshal()
				if v == variantVector {
					payload = fd.MarshalVectorPayload(s, payload)
				}
				bank = append(bank, payload)
			}
			if err != nil {
				t.Fatalf("bank: %v", err)
			}
		}
	}
	fuzzBanks[[2]int{v, n}] = bank
	return f, bank
}

// diffAgainstReference plays one fuzz input, with m planted in the nodes
// under test, and returns the run's name and its first divergence from
// the reference twins.
func diffAgainstReference(t *testing.T, data []byte, m simtest.Mutant) (string, error) {
	if len(data) < 5 {
		return "", nil
	}
	v := int(data[0]) % variantCount
	n := 2 + int(data[1])%6
	cfg := model.Config{N: n, T: int(data[2]) % n}
	sc := chainScenarios[int(data[3])%len(chainScenarios)]
	bit := data[4] & 1
	f, bank := fuzzBank(t, v, n)
	rounds := fd.ChainEngineRounds(cfg.T) + 1
	build := func(id model.NodeID, ref bool) sim.Process { return buildVariant(t, v, f, cfg, id, bit, ref) }

	// Four bytes per extra delivery: round, receiver, sender (its top
	// bit: before the round's honest traffic), and bank item (its two low
	// bits: as is, tampered, truncated, wrong kind).
	type delivery struct {
		round int
		first bool
		msg   model.Message
	}
	var script []delivery
	for data := data[5:]; len(data) >= 4 && len(script) < 32; data = data[4:] {
		round, to, from, item := int(data[0]), int(data[1]), int(data[2]), int(data[3])
		msg := model.Message{From: model.NodeID((from & 0x7f) % n), To: model.NodeID(to % n), Kind: model.KindChainValue,
			Payload: bytes.Clone(bank[(item>>2)%len(bank)])}
		switch item & 3 {
		case 1:
			msg.Payload[round*7%len(msg.Payload)] ^= 0x01
		case 2:
			msg.Payload = msg.Payload[:len(msg.Payload)/2]
		case 3:
			msg.Kind = model.KindEcho
		}
		// No engine delivers in round 1: messages sent there land in 2.
		script = append(script, delivery{2 + round%(rounds-1), from&0x80 != 0, msg})
	}

	nodes, recs, refs := make([]sim.Process, n), make([]*simtest.Recorder, n), make([]*simtest.Recorder, n)
	for i := range nodes {
		recs[i] = simtest.Record(m.Wrap(i, build(model.NodeID(i), false)), n, nil)
		refs[i] = simtest.Record(build(model.NodeID(i), true), n, nil)
		nodes[i] = recs[i]
	}
	if sc.faulty != nil {
		id, p := sc.faulty(cfg, f, func(id model.NodeID) sim.Process { return build(id, false) })
		nodes[id], recs[id], refs[id] = p, nil, nil
	}
	inbox := make([][]model.Message, n)
	for round := 1; round <= rounds; round++ {
		cur := inbox
		inbox = make([][]model.Message, n)
		for _, d := range script {
			switch {
			case d.round != round:
			case d.first:
				cur[d.msg.To] = append([]model.Message{d.msg}, cur[d.msg.To]...)
			default:
				cur[d.msg.To] = append(cur[d.msg.To], d.msg)
			}
		}
		for i, node := range nodes {
			out := node.Step(round, slices.Clone(cur[i]))
			if refs[i] != nil {
				refs[i].Step(round, slices.Clone(cur[i]))
			}
			for _, m := range out {
				if m.To.Valid(n) {
					m.From = model.NodeID(i)
					inbox[m.To] = append(inbox[m.To], m)
				}
			}
		}
	}
	name := fmt.Sprintf("%s n=%d t=%d %s bit=%d", variantNames[v], n, cfg.T, sc.name, bit)
	return name, simtest.Compare(recs, refs, simtest.Options{Verdicts: true, LooseCause: v != variantChain})
}

// FuzzChainVariantsMatchReference checks the chain, small-range and vector
// nodes, all one chain run, against the three separate implementations
// they replaced.
func FuzzChainVariantsMatchReference(f *testing.F) {
	// Every scenario of fd_test.go at its n=6 t=2, for every variant and
	// both bits.
	for v := 0; v < variantCount; v++ {
		for sc := range chainScenarios {
			for bit := byte(0); bit < 2; bit++ {
				f.Add([]byte{byte(v), 4, 2, byte(sc), bit})
			}
		}
		// The split disseminator as fd_test.go runs it, at n=7.
		f.Add([]byte{byte(v), 5, 2, 6, 1})
		// Bank item 1, the two-signature chain of run 0 (what P_2
		// receives), delivered to P_2 as is, tampered, truncated and under
		// the wrong kind, on time; then early, a three-signature chain
		// late at P_3, from the wrong sender, and ahead of the honest copy.
		f.Add([]byte{byte(v), 4, 2, 0, 1,
			1, 2, 1, 4, 1, 2, 1, 5, 1, 2, 1, 6, 1, 2, 1, 7})
		f.Add([]byte{byte(v), 4, 2, 0, 1,
			0, 2, 1, 4, 2, 3, 2, 8, 1, 2, 3, 4, 1, 2, 0x81, 4})
		// Fault bounds at the edges: t = 0 and t = n−1.
		f.Add([]byte{byte(v), 2, 0, 0, 1, 0, 1, 0, 0})
		f.Add([]byte{byte(v), 3, 4, 1, 1, 1, 4, 3, 4})
	}
	// Small range: a chain carrying 2, the value no bit is, reaches P_1
	// on time from a sender that kept silent (bank item 12).
	f.Add([]byte{variantSmallRange, 4, 2, 0, 0, 0, 1, 0, 48})
	f.Fuzz(func(t *testing.T, data []byte) {
		if name, err := diffAgainstReference(t, data, simtest.Mutant{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}

// TestChainDifferentialCatchesAPlantedByte: in every variant's
// failure-free run at n=6 t=2, the first relay P_1 sends its round-2
// relay with one byte flipped, and the differential names that message.
func TestChainDifferentialCatchesAPlantedByte(t *testing.T) {
	m := simtest.Mutant{Node: 1, Round: 2}
	for v := byte(0); v < variantCount; v++ {
		_, err := diffAgainstReference(t, []byte{v, 4, 2, 0, 1}, m)
		m.Caught(t, err)
	}
}

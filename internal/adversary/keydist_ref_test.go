package adversary

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The three hand-written key-distribution attackers that ForeignClaim
// and KeyFaces replaced, kept as the oracles their filter forms are
// checked against: each copies Fig. 1's broadcast and respond rounds
// instead of filtering the correct node's.

// refForeignClaimNode broadcasts a victim's test predicate as its own
// and stays silent afterwards.
type refForeignClaimNode struct {
	id     model.NodeID
	cfg    model.Config
	victim sig.TestPredicate
}

func (a *refForeignClaimNode) Step(round int, _ []model.Message) []model.Message {
	if round != keydist.RoundBroadcast {
		return nil
	}
	out := make([]model.Message, 0, a.cfg.N-1)
	for _, to := range a.cfg.Nodes() {
		if to != a.id {
			out = append(out, model.Message{To: to, Kind: model.KindTestPredicate, Payload: a.victim.Bytes()})
		}
	}
	return out
}

func (a *refForeignClaimNode) Finished() bool { return true }

// refMixedPredicateNode distributes predicate A to groupA and predicate
// B to everyone else, answering each challenge with the matching key.
type refMixedPredicateNode struct {
	id      model.NodeID
	cfg     model.Config
	groupA  model.NodeSet
	signerA sig.Signer
	signerB sig.Signer
}

func newRefMixedPredicateNode(cfg model.Config, id model.NodeID, scheme sig.Scheme, rand io.Reader, groupA model.NodeSet) (*refMixedPredicateNode, error) {
	sa, err := scheme.Generate(rand)
	if err != nil {
		return nil, fmt.Errorf("adversary: generate key A: %w", err)
	}
	sb, err := scheme.Generate(rand)
	if err != nil {
		return nil, fmt.Errorf("adversary: generate key B: %w", err)
	}
	return &refMixedPredicateNode{id: id, cfg: cfg, groupA: groupA, signerA: sa, signerB: sb}, nil
}

func (a *refMixedPredicateNode) signerFor(node model.NodeID) sig.Signer {
	if a.groupA.Contains(node) {
		return a.signerA
	}
	return a.signerB
}

func (a *refMixedPredicateNode) Step(round int, received []model.Message) []model.Message {
	var out []model.Message
	switch round {
	case keydist.RoundBroadcast:
		for _, to := range a.cfg.Nodes() {
			if to == a.id {
				continue
			}
			out = append(out, model.Message{
				To:      to,
				Kind:    model.KindTestPredicate,
				Payload: a.signerFor(to).Predicate().Bytes(),
			})
		}
	case keydist.RoundResponse:
		for _, m := range received {
			if m.Kind != model.KindChallenge {
				continue
			}
			ch, err := keydist.UnmarshalChallenge(m.Payload)
			if err != nil {
				continue
			}
			if !keydist.ShouldSign(ch, a.id, m.From) {
				continue
			}
			resp, err := keydist.Respond(ch, a.signerFor(m.From))
			if err != nil {
				continue
			}
			out = append(out, model.Message{To: m.From, Kind: model.KindChallengeResponse, Payload: resp.Marshal()})
		}
	}
	return out
}

func (a *refMixedPredicateNode) Finished() bool { return true }

// refSharedKeyNode runs Fig. 1 with a key shared among a coalition,
// challenging nobody.
type refSharedKeyNode struct {
	id     model.NodeID
	cfg    model.Config
	signer sig.Signer
}

func newRefSharedKeyGroup(cfg model.Config, scheme sig.Scheme, rand io.Reader, ids ...model.NodeID) ([]*refSharedKeyNode, error) {
	signer, err := scheme.Generate(rand)
	if err != nil {
		return nil, fmt.Errorf("adversary: generate shared key: %w", err)
	}
	out := make([]*refSharedKeyNode, len(ids))
	for i, id := range ids {
		out[i] = &refSharedKeyNode{id: id, cfg: cfg, signer: signer}
	}
	return out, nil
}

func (a *refSharedKeyNode) Step(round int, received []model.Message) []model.Message {
	var out []model.Message
	switch round {
	case keydist.RoundBroadcast:
		pred := a.signer.Predicate().Bytes()
		for _, to := range a.cfg.Nodes() {
			if to != a.id {
				out = append(out, model.Message{To: to, Kind: model.KindTestPredicate, Payload: pred})
			}
		}
	case keydist.RoundResponse:
		for _, m := range received {
			if m.Kind != model.KindChallenge {
				continue
			}
			ch, err := keydist.UnmarshalChallenge(m.Payload)
			if err != nil {
				continue
			}
			if !keydist.ShouldSign(ch, a.id, m.From) {
				continue
			}
			resp, err := keydist.Respond(ch, a.signer)
			if err != nil {
				continue
			}
			out = append(out, model.Message{To: m.From, Kind: model.KindChallengeResponse, Payload: resp.Marshal()})
		}
	}
	return out
}

func (a *refSharedKeyNode) Finished() bool { return true }

// attackCase is one key-distribution attack on one seeded cluster.
type attackCase struct {
	attack  string // "claim", "mixed" or "shared"
	n       int
	seed    int64
	faulty  model.NodeID
	faceOne model.NodeSet
	scheme  string
	mesh    bool
}

func (c attackCase) String() string {
	engine := "sim"
	if c.mesh {
		engine = "mesh"
	}
	return fmt.Sprintf("%s/n=%d/seed=%d/P%d/faceOne=%v/%s/%s", c.attack, c.n, c.seed, c.faulty, c.faceOne, c.scheme, engine)
}

// faceOneShapes are the recipient groups the mixed attacker shows key
// one: nobody, one peer, the lower half, and everyone but one peer.
func faceOneShapes(n int, faulty model.NodeID) []model.NodeSet {
	peer := (faulty + 1) % model.NodeID(n)
	half, allButOne := model.NewNodeSet(), model.NewNodeSet()
	for _, id := range (model.Config{N: n}).Nodes() {
		if int(id) < n/2 {
			half.Add(id)
		}
		if id != peer {
			allButOne.Add(id)
		}
	}
	return []model.NodeSet{model.NewNodeSet(), model.NewNodeSet(peer), half, allButOne}
}

// attackEstablishment is what a corrupt key distribution leaves behind.
type attackEstablishment struct {
	delivered []model.Message
	report    core.Report
	nodes     []*keydist.Node
}

// establish runs key distribution under opts on the case's seeded
// cluster, recording every delivered message.
func (c attackCase) establish(t testing.TB, opts ...core.RunOption) attackEstablishment {
	t.Helper()
	rec := &sim.RecordingTracer{}
	clusterOpts := []core.Option{core.WithSeed(c.seed), core.WithScheme(c.scheme), core.WithTracer(rec)}
	if c.mesh {
		clusterOpts = append(clusterOpts, core.WithEngine(transport.MeshEngine(transport.NewMemoryMesh(c.n).Endpoints())))
	}
	cl, err := core.New(model.Config{N: c.n, T: 1}, clusterOpts...)
	if err != nil {
		t.Fatalf("%v: core.New: %v", c, err)
	}
	rep, err := cl.EstablishAuthentication(opts...)
	if err != nil {
		t.Fatalf("%v: EstablishAuthentication: %v", c, err)
	}
	return attackEstablishment{delivered: rec.Messages(), report: rep, nodes: cl.Nodes()}
}

// refAndFilter returns the case's attack as its reference process and
// as its filter form, each as setup run options.
func (c attackCase) refAndFilter(t testing.TB) (ref, filter []core.RunOption) {
	t.Helper()
	cfg := model.Config{N: c.n, T: 1}
	scheme, err := sig.ByName(c.scheme)
	if err != nil {
		t.Fatal(err)
	}
	keys := func() io.Reader { return sim.SeededReader(c.seed + 7) }
	switch c.attack {
	case "claim":
		victim := c.establish(t).nodes[(c.faulty+1)%model.NodeID(c.n)].Signer().Predicate()
		return []core.RunOption{core.WithProcess(c.faulty, &refForeignClaimNode{id: c.faulty, cfg: cfg, victim: victim})},
			[]core.RunOption{core.WithWrappedProcess(c.faulty, ForeignClaim(victim))}
	case "mixed":
		mixed, err := newRefMixedPredicateNode(cfg, c.faulty, scheme, keys(), c.faceOne)
		if err != nil {
			t.Fatal(err)
		}
		faces, err := NewKeyFaces(scheme, keys(), c.faceOne)
		if err != nil {
			t.Fatal(err)
		}
		return []core.RunOption{core.WithProcess(c.faulty, mixed)},
			[]core.RunOption{core.WithWrappedProcess(c.faulty, faces.Wrap)}
	case "shared":
		other := (c.faulty + 1) % model.NodeID(c.n)
		group, err := newRefSharedKeyGroup(cfg, scheme, keys(), c.faulty, other)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewSharedKey(scheme, keys())
		if err != nil {
			t.Fatal(err)
		}
		return []core.RunOption{core.WithProcess(c.faulty, group[0]), core.WithProcess(other, group[1])},
			[]core.RunOption{core.WithWrappedProcess(c.faulty, shared.Wrap), core.WithWrappedProcess(other, shared.Wrap)}
	}
	t.Fatalf("unknown attack %q", c.attack)
	return nil, nil
}

// compareMessage orders delivered messages canonically: a mesh delivers
// one round's messages in no fixed order.
func compareMessage(a, b model.Message) int {
	return cmp.Or(cmp.Compare(a.Round, b.Round), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To),
		cmp.Compare(a.Kind, b.Kind), bytes.Compare(a.Payload, b.Payload))
}

// checkAttackMatchesReference runs the case's reference attacker and its
// filter form and asserts the same delivered traffic, report, surviving
// directories and G1/G2 verdicts.
func checkAttackMatchesReference(t testing.TB, c attackCase) {
	t.Helper()
	refOpts, filterOpts := c.refAndFilter(t)
	want, got := c.establish(t, refOpts...), c.establish(t, filterOpts...)
	slices.SortFunc(want.delivered, compareMessage)
	slices.SortFunc(got.delivered, compareMessage)
	if !reflect.DeepEqual(got.delivered, want.delivered) {
		t.Fatalf("%v: delivered traffic differs from the reference's (%d vs %d messages)", c, len(got.delivered), len(want.delivered))
	}
	if !reflect.DeepEqual(got.report, want.report) {
		t.Fatalf("%v: report %+v, reference %+v", c, got.report, want.report)
	}
	for i := range want.nodes {
		a, b := want.nodes[i], got.nodes[i]
		if (a == nil) != (b == nil) {
			t.Fatalf("%v: P%d kept its keys under one form only", c, i)
		}
		if a == nil {
			continue
		}
		if a.Directory().Len() != b.Directory().Len() {
			t.Fatalf("%v: P%d accepted %d predicates, reference %d", c, i, b.Directory().Len(), a.Directory().Len())
		}
		for q := 0; q < c.n; q++ {
			if !a.Directory().AgreesWith(b.Directory(), model.NodeID(q)) {
				t.Fatalf("%v: P%d's entry for P%d differs from the reference's", c, i, q)
			}
		}
	}
	verdict := func(err error) string { return fmt.Sprint(err) }
	if g, w := verdict(core.CheckG1(got.nodes)), verdict(core.CheckG1(want.nodes)); g != w {
		t.Fatalf("%v: CheckG1 = %s, reference %s", c, g, w)
	}
	if g, w := verdict(core.CheckG2(got.nodes)), verdict(core.CheckG2(want.nodes)); g != w {
		t.Fatalf("%v: CheckG2 = %s, reference %s", c, g, w)
	}
}

// attackCases covers n = 4…10 at five seeds each: the faulty node walks
// from P_0 down from the top, the schemes rotate, and the mixed attack
// shows every faceOne shape at every size; every case runs on the
// simulator and on the memory mesh.
func attackCases() []attackCase {
	schemes := []string{sig.SchemeEd25519, sig.SchemeHMAC, sig.SchemeToy}
	var cases []attackCase
	for n := 4; n <= 10; n++ {
		for seed := int64(0); seed < 5; seed++ {
			faulty := model.NodeID((int(seed) * (n - 1)) % n)
			base := attackCase{n: n, seed: 300 + seed, faulty: faulty, scheme: schemes[(n+int(seed))%len(schemes)]}
			variants := []attackCase{base, base}
			variants[0].attack, variants[1].attack = "claim", "shared"
			for _, faceOne := range faceOneShapes(n, faulty) {
				mixed := base
				mixed.attack, mixed.faceOne = "mixed", faceOne
				variants = append(variants, mixed)
			}
			for _, v := range variants {
				onMesh := v
				onMesh.mesh = true
				cases = append(cases, v, onMesh)
			}
		}
	}
	return cases
}

func TestKeydistAttacksMatchReference(t *testing.T) {
	for _, c := range attackCases() {
		checkAttackMatchesReference(t, c)
	}
}

// FuzzKeydistAttacksMatchReference draws the attack, size, seed, faulty
// node, faceOne (a bit mask), scheme and engine; every draw's filter
// form must match its reference as TestKeydistAttacksMatchReference
// asserts.
func FuzzKeydistAttacksMatchReference(f *testing.F) {
	attacks := []string{"claim", "mixed", "shared"}
	schemes := []string{sig.SchemeEd25519, sig.SchemeHMAC, sig.SchemeToy}
	for _, c := range attackCases() {
		var mask uint16
		for _, id := range c.faceOne.Sorted() {
			mask |= 1 << id
		}
		f.Add(uint8(slices.Index(attacks, c.attack)), uint8(c.n), c.seed, uint8(c.faulty), mask,
			uint8(slices.Index(schemes, c.scheme)), c.mesh)
	}
	f.Fuzz(func(t *testing.T, attack, n uint8, seed int64, faulty uint8, mask uint16, scheme uint8, mesh bool) {
		c := attackCase{
			attack: attacks[int(attack)%len(attacks)],
			n:      4 + int(n)%7,
			seed:   seed,
			scheme: schemes[int(scheme)%len(schemes)],
			mesh:   mesh,
		}
		c.faulty = model.NodeID(int(faulty) % c.n)
		c.faceOne = model.NewNodeSet()
		for id := 0; id < c.n; id++ {
			if mask&(1<<id) != 0 {
				c.faceOne.Add(model.NodeID(id))
			}
		}
		checkAttackMatchesReference(t, c)
	})
}

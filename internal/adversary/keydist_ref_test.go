package adversary

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/transport"
)

// The four hand-written key-distribution attackers that ForeignClaim,
// KeyFaces and ChallengeRelay replaced, kept as the oracles their filter
// forms are checked against: each copies Fig. 1's rounds instead of
// filtering the correct node's. The harness below also runs the
// failure-discovery oracles of fd_ref_test.go.

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

// refChallengeRelayNode claims a victim's predicate and then tries to launder
// the challenges through the victim itself: when challenger C sends it
// {C, A, r}, it forwards the challenge to the victim V hoping V signs
// something usable. A correct victim signs only challenges of the form
// {sender, V, r} naming itself and the true immediate sender, so the
// harvested signature (if any) never matches what C expects — the reason
// the challenge carries BOTH names (paper §3.1).
type refChallengeRelayNode struct {
	id     model.NodeID
	cfg    model.Config
	victim model.NodeID
	pred   sig.TestPredicate
}

// newRefChallengeRelayNode builds the relaying claimant.
func newRefChallengeRelayNode(cfg model.Config, id, victim model.NodeID, victimPred sig.TestPredicate) *refChallengeRelayNode {
	return &refChallengeRelayNode{id: id, cfg: cfg, victim: victim, pred: victimPred}
}

// Step implements sim.Process.
func (a *refChallengeRelayNode) Step(round int, received []model.Message) []model.Message {
	var out []model.Message
	switch round {
	case keydist.RoundBroadcast:
		for _, to := range a.cfg.Nodes() {
			if to != a.id {
				out = append(out, model.Message{To: to, Kind: model.KindTestPredicate, Payload: a.pred.Bytes()})
			}
		}
	case keydist.RoundChallenge:
		// Preemptively probe the victim with misdirected challenges,
		// hoping to harvest a signature usable toward some challenger C:
		// one challenge names C as challenger (the victim must refuse: C
		// is not the immediate sender), one names ourselves (the victim
		// signs, but the signature binds OUR name and OUR nonce, so it can
		// never satisfy C's verification).
		for _, c := range a.cfg.Nodes() {
			if c == a.id || c == a.victim {
				continue
			}
			forged := keydist.Challenge{Challenger: c, Challenged: a.victim, Nonce: make([]byte, keydist.NonceSize)}
			out = append(out, model.Message{To: a.victim, Kind: model.KindChallenge, Payload: forged.Marshal()})
		}
		own := keydist.Challenge{Challenger: a.id, Challenged: a.victim, Nonce: make([]byte, keydist.NonceSize)}
		out = append(out, model.Message{To: a.victim, Kind: model.KindChallenge, Payload: own.Marshal()})
	case keydist.RoundResponse:
		// Real challenges addressed to us arrive now; forward them to the
		// victim verbatim (they will arrive a round late AND misnamed —
		// doubly refused). What the victim signs for our own probe
		// arrives after the response round: too late to replay.
		for _, m := range received {
			if m.Kind != model.KindChallenge {
				continue
			}
			if _, err := keydist.ParseChallenge(m.Payload); err == nil {
				out = append(out, model.Message{To: a.victim, Kind: model.KindChallenge, Payload: m.Payload})
			}
		}
	}
	return out
}

// Finished implements sim.Finisher.
func (a *refChallengeRelayNode) Finished() bool { return true }

// attackCase is one attack on one seeded cluster: on its key
// distribution, or — for the fdAttacks — on a failure-discovery run
// after an honest one.
type attackCase struct {
	attack string
	n, t   int
	seed   int64
	faulty model.NodeID
	// faceOne is the group the mixed attacker shows key one, and the
	// echoer's victims.
	faceOne model.NodeSet
	scheme  string
	mesh    bool
}

var (
	// setupAttacks corrupt key distribution. "relay-misnamed" adds a
	// faulty challenger whose challenges name the wrong challenged node:
	// the relay forwards them, though its correct process refuses to sign
	// them, so no filter of its responses could — the case that gives a
	// Filter the round's inbox.
	setupAttacks = []string{"claim", "mixed", "shared", "relay", "relay-misnamed"}
	// fdAttacks corrupt a chain run of the value "v" — the echo attacks a
	// non-authenticated one — after an honest key distribution; "collude"
	// and "echo-silent" silence the sender too.
	fdAttacks = []string{"resign", "collude", "wrong-name", "echo", "echo-silent"}
)

func (c attackCase) onFD() bool { return slices.Contains(fdAttacks, c.attack) }

func (c attackCase) String() string {
	engine := "sim"
	if c.mesh {
		engine = "mesh"
	}
	return fmt.Sprintf("%s/n=%d/t=%d/seed=%d/P%d/faceOne=%v/%s/%s", c.attack, c.n, c.t, c.seed, c.faulty, c.faceOne, c.scheme, engine)
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

// slot is one faulty node in one form of an attack: a process that
// replaces it (a reference) or a wrap of its correct process (a filter
// form).
type slot struct {
	id   model.NodeID
	proc sim.Process
	wrap func(sim.Process) sim.Process
}

// attackEstablishment is what an attacked run leaves behind.
type attackEstablishment struct {
	delivered []model.Message
	report    core.Report
	nodes     []*keydist.Node
	// faulty holds the attacked slots' IDs.
	faulty model.NodeSet
	// finished counts the faulty slots whose process is Finished at the
	// end of the run.
	finished int
}

// establish runs the case's cluster with the faulty slots attack puts
// in it (none when attack is nil), recording every delivered message of
// key distribution and, for an fdAttack, of the failure-discovery run
// that follows it.
func (c attackCase) establish(t testing.TB, attack func(*core.Cluster) []slot) attackEstablishment {
	t.Helper()
	rec := &sim.RecordingTracer{}
	clusterOpts := []core.Option{core.WithSeed(c.seed), core.WithScheme(c.scheme), core.WithTracer(rec)}
	if c.mesh {
		meshes := transport.NewMemoryMesh(c.n)
		defer func() {
			for _, m := range meshes {
				m.Close()
			}
		}()
		clusterOpts = append(clusterOpts, core.WithEngine(transport.MeshEngine(meshes)))
	}
	cl, err := core.New(model.Config{N: c.n, T: c.t}, clusterOpts...)
	if err != nil {
		t.Fatalf("%v: core.New: %v", c, err)
	}
	var faulty []sim.Process
	ids := model.NewNodeSet()
	options := func() []core.RunOption {
		var opts []core.RunOption
		for _, s := range attack(cl) {
			ids.Add(s.id)
			if s.proc != nil {
				faulty = append(faulty, s.proc)
				opts = append(opts, core.WithProcess(s.id, s.proc))
				continue
			}
			opts = append(opts, core.WithWrappedProcess(s.id, func(p sim.Process) sim.Process {
				w := s.wrap(p)
				faulty = append(faulty, w)
				return w
			}))
		}
		return opts
	}
	var setup []core.RunOption
	if attack != nil && !c.onFD() {
		setup = options()
	}
	rep, err := cl.EstablishAuthentication(setup...)
	if err != nil {
		t.Fatalf("%v: EstablishAuthentication: %v", c, err)
	}
	if attack != nil && c.onFD() {
		if strings.HasPrefix(c.attack, "echo") {
			rep, err = runNonAuth(cl, []byte("v"), options()...)
		} else {
			rep, err = cl.RunFailureDiscovery([]byte("v"), options()...)
		}
		if err != nil {
			t.Fatalf("%v: failure-discovery run: %v", c, err)
		}
	}
	done := 0
	for _, p := range faulty {
		if p.(sim.Finisher).Finished() {
			done++
		}
	}
	return attackEstablishment{delivered: rec.Messages(), report: rep, nodes: cl.Nodes(), faulty: ids, finished: done}
}

// runNonAuth runs the non-authenticated baseline over cl through
// Cluster.Run, P_0 sending value, and reads the correct nodes' outcomes
// and discoveries into the report as RunFailureDiscovery does.
func runNonAuth(cl *core.Cluster, value []byte, opts ...core.RunOption) (core.Report, error) {
	cfg := cl.Config()
	rep, honest, err := cl.Run("nonauth", fd.NonAuthEngineRounds(cfg.T), func(id model.NodeID) (sim.Process, error) {
		if id == fd.Sender {
			return fd.NewNonAuthNode(cfg, id, fd.WithNonAuthValue(value))
		}
		return fd.NewNonAuthNode(cfg, id)
	}, opts...)
	if err != nil {
		return core.Report{}, err
	}
	for _, p := range honest {
		if p != nil {
			out := p.(fd.Outcomer).Outcome()
			rep.Outcomes = append(rep.Outcomes, out)
			if out.Discovery != nil {
				rep.Discoveries = append(rep.Discoveries, *out.Discovery)
			}
		}
	}
	return rep, nil
}

// refAndFilter returns the case's attack in its reference form and in
// its filter form.
func (c attackCase) refAndFilter(t testing.TB) (ref, filter func(*core.Cluster) []slot) {
	t.Helper()
	cfg := model.Config{N: c.n, T: c.t}
	scheme, err := sig.ByName(c.scheme)
	if err != nil {
		t.Fatal(err)
	}
	keys := func() io.Reader { return sim.SeededReader(c.seed + 7) }
	peer := func(k int) model.NodeID { return (c.faulty + model.NodeID(k)) % model.NodeID(c.n) }
	// The attacker in both forms, and the faulty bystanders both share.
	var refProc func(*core.Cluster) sim.Process
	var wrap func(*core.Cluster) func(sim.Process) sim.Process
	var bystanders []slot
	switch c.attack {
	case "claim":
		victim := c.establish(t, nil).nodes[peer(1)].Signer().Predicate()
		refProc = func(*core.Cluster) sim.Process { return &refForeignClaimNode{id: c.faulty, cfg: cfg, victim: victim} }
		wrap = func(*core.Cluster) func(sim.Process) sim.Process { return ForeignClaim(victim) }
	case "mixed":
		mixed, err := newRefMixedPredicateNode(cfg, c.faulty, scheme, keys(), c.faceOne)
		if err != nil {
			t.Fatal(err)
		}
		keyRand := keys()
		keyOne, err := scheme.Generate(keyRand)
		if err != nil {
			t.Fatal(err)
		}
		keyTwo, err := scheme.Generate(keyRand)
		if err != nil {
			t.Fatal(err)
		}
		faces := NewKeyFaces(c.faceOne, keyOne, keyTwo)
		refProc = func(*core.Cluster) sim.Process { return mixed }
		wrap = func(*core.Cluster) func(sim.Process) sim.Process { return faces.Wrap }
	case "shared":
		group, err := newRefSharedKeyGroup(cfg, scheme, keys(), c.faulty, peer(1))
		if err != nil {
			t.Fatal(err)
		}
		sharedKey, err := scheme.Generate(keys())
		if err != nil {
			t.Fatal(err)
		}
		shared := NewKeyFaces(nil, sharedKey, sharedKey)
		return func(*core.Cluster) []slot {
				return []slot{{id: c.faulty, proc: group[0]}, {id: peer(1), proc: group[1]}}
			},
			func(*core.Cluster) []slot {
				return []slot{{id: c.faulty, wrap: shared.Wrap}, {id: peer(1), wrap: shared.Wrap}}
			}
	case "relay", "relay-misnamed":
		victim := c.establish(t, nil).nodes[peer(2)].Signer().Predicate()
		refProc = func(*core.Cluster) sim.Process { return newRefChallengeRelayNode(cfg, c.faulty, peer(2), victim) }
		wrap = func(*core.Cluster) func(sim.Process) sim.Process {
			return ChallengeRelay(cfg, c.faulty, peer(2), victim)
		}
		if c.attack == "relay-misnamed" {
			// Byte 15 is the last byte of the challenged node's name.
			bystanders = []slot{{id: peer(1), wrap: func(p sim.Process) sim.Process {
				return Wrap(p, TamperPayload(model.KindChallenge, FlipByte(15)))
			}}}
		}
	case "resign", "collude":
		signer := func(cl *core.Cluster) sig.Signer { return cl.Nodes()[c.faulty].Signer() }
		if c.attack == "collude" {
			signer = func(cl *core.Cluster) sig.Signer { return cl.Nodes()[fd.Sender].Signer() }
			bystanders = []slot{{id: fd.Sender, proc: sim.Silent{}}}
		}
		refProc = func(cl *core.Cluster) sim.Process {
			return newRefResignRelay(cfg, c.faulty, signer(cl), []byte("forged"))
		}
		wrap = func(cl *core.Cluster) func(sim.Process) sim.Process {
			filter := Resign(cfg, c.faulty, signer(cl), []byte("forged"))
			return func(p sim.Process) sim.Process { return Wrap(p, filter) }
		}
	case "wrong-name":
		refProc = func(cl *core.Cluster) sim.Process {
			return newRefWrongNameRelay(cfg, c.faulty, cl.Nodes()[c.faulty].Signer(), peer(3))
		}
		wrap = func(cl *core.Cluster) func(sim.Process) sim.Process {
			filter := WrongName(cl.Nodes()[c.faulty].Signer(), peer(3))
			return func(p sim.Process) sim.Process { return Wrap(p, filter) }
		}
	case "echo", "echo-silent":
		refProc = func(*core.Cluster) sim.Process { return newRefLyingEchoer(cfg, c.faulty, []byte("lie"), c.faceOne) }
		wrap = func(*core.Cluster) func(sim.Process) sim.Process {
			return LyingEcho(cfg, c.faulty, []byte("lie"), c.faceOne)
		}
		if c.attack == "echo-silent" {
			bystanders = []slot{{id: fd.Sender, proc: sim.Silent{}}}
		}
	default:
		t.Fatalf("unknown attack %q", c.attack)
	}
	return func(cl *core.Cluster) []slot { return append([]slot{{id: c.faulty, proc: refProc(cl)}}, bystanders...) },
		func(cl *core.Cluster) []slot { return append([]slot{{id: c.faulty, wrap: wrap(cl)}}, bystanders...) }
}

// diff returns the first way an attacked run differs from its reference:
// delivered traffic (every round's messages, payload bytes included, in
// canonical order, since a mesh delivers one round's messages in no fixed
// order), report (rounds executed, traffic, outcomes and discoveries),
// faulty processes finished, the correct nodes' directories and G1/G2
// verdicts. (A filter's node keeps its keys where the reference process
// kept none, so faulty slots are not compared.)
func (got attackEstablishment) diff(want attackEstablishment) error {
	if err := cmp.Or(simtest.Traffic(got.delivered, want.delivered, true), simtest.Equal("report", got.report, want.report),
		simtest.Equal("faulty processes finished", got.finished, want.finished)); err != nil {
		return err
	}
	for i, a := range want.nodes {
		b := got.nodes[i]
		if want.faulty.Contains(model.NodeID(i)) {
			continue
		}
		if err := simtest.Equal(fmt.Sprintf("P%d's accepted predicates", i), b.Directory().Len(), a.Directory().Len()); err != nil {
			return err
		}
		for q := range want.nodes {
			if !a.Directory().AgreesWith(b.Directory(), model.NodeID(q)) {
				return fmt.Errorf("P%d's entry for P%d differs from the reference's", i, q)
			}
		}
	}
	verdict := func(err error) string { return fmt.Sprint(err) }
	return cmp.Or(simtest.Equal("CheckG1", verdict(core.CheckG1(got.nodes, got.faulty)), verdict(core.CheckG1(want.nodes, want.faulty))),
		simtest.Equal("CheckG2", verdict(core.CheckG2(got.nodes, got.faulty)), verdict(core.CheckG2(want.nodes, want.faulty))))
}

// matchesReference runs the case's reference attacker and its filter
// form, the latter under m, and returns their first divergence.
func (c attackCase) matchesReference(t testing.TB, m simtest.Mutant) error {
	t.Helper()
	ref, filter := c.refAndFilter(t)
	want := c.establish(t, ref)
	planted := func(cl *core.Cluster) []slot {
		slots := filter(cl)
		for i, s := range slots {
			if s.wrap != nil {
				slots[i].wrap = func(p sim.Process) sim.Process { return m.Wrap(int(s.id), s.wrap(p)) }
			}
		}
		return slots
	}
	return c.establish(t, planted).diff(want)
}

// attackCases covers n = 4…10: the first three setup attacks at five
// seeds each, the faulty node walking from P_0 down from the top, the
// schemes rotating and the mixed attack showing every faceOne shape at
// every size; then the rest at three seeds each, t = 2, the challenge
// relay's faulty node walking the same way and every fdAttack's on the
// relay P_1 and the disseminator P_2, the echoer lying to every faceOne
// shape; last, E5's challenge relay (n=6, P5, victim P1) and E6/E7's
// relays (n=6: P1 re-signing or naming P4, P2 re-signing with P0's key)
// as the experiments run them, under ed25519. Every case runs on the
// simulator and on the memory mesh.
func attackCases() []attackCase {
	schemes := []string{sig.SchemeEd25519, sig.SchemeHMAC, sig.SchemeToy}
	var cases []attackCase
	add := func(variants ...attackCase) {
		for _, v := range variants {
			onMesh := v
			onMesh.mesh = true
			cases = append(cases, v, onMesh)
		}
	}
	for n := 4; n <= 10; n++ {
		for seed := int64(0); seed < 5; seed++ {
			faulty := model.NodeID((int(seed) * (n - 1)) % n)
			base := attackCase{n: n, t: 1, seed: 300 + seed, faulty: faulty, scheme: schemes[(n+int(seed))%len(schemes)]}
			variants := []attackCase{base, base}
			variants[0].attack, variants[1].attack = "claim", "shared"
			for _, faceOne := range faceOneShapes(n, faulty) {
				mixed := base
				mixed.attack, mixed.faceOne = "mixed", faceOne
				variants = append(variants, mixed)
			}
			add(variants...)
		}
	}
	for n := 4; n <= 10; n++ {
		for seed := int64(0); seed < 3; seed++ {
			base := attackCase{n: n, t: 2, seed: 300 + seed, scheme: schemes[(n+int(seed))%len(schemes)]}
			for _, attack := range append(setupAttacks[3:], fdAttacks...) {
				v := base
				v.attack, v.faulty = attack, model.NodeID((int(seed)*(n-1))%n)
				if v.onFD() {
					v.faulty = model.NodeID(1 + seed%2)
				}
				if !strings.HasPrefix(attack, "echo") {
					add(v)
					continue
				}
				for _, victims := range faceOneShapes(n, v.faulty) {
					v.faceOne = victims
					add(v)
				}
			}
		}
	}
	experiment := attackCase{n: 6, t: 2, seed: 1995, scheme: sig.SchemeEd25519}
	for _, e := range []struct {
		attack string
		faulty model.NodeID
	}{{"relay", 5}, {"resign", 1}, {"wrong-name", 1}, {"collude", 2}} {
		experiment.attack, experiment.faulty = e.attack, e.faulty
		add(experiment)
	}
	return cases
}

func TestKeydistAttacksMatchReference(t *testing.T) {
	for _, c := range attackCases() {
		if err := c.matchesReference(t, simtest.Mutant{}); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
}

// TestKeydistDifferentialCatchesAPlantedByte: the foreign claimant P_0
// at n=4 sends its round-1 claim to P_3 with one byte flipped, on the
// simulator and on the memory mesh, and the differential names that
// message.
func TestKeydistDifferentialCatchesAPlantedByte(t *testing.T) {
	m := simtest.Mutant{Node: 0, Round: keydist.RoundBroadcast, Msg: 2}
	for _, mesh := range []bool{false, true} {
		c := attackCase{attack: "claim", n: 4, t: 1, seed: 300, scheme: sig.SchemeToy, mesh: mesh}
		m.Caught(t, c.matchesReference(t, m))
	}
}

// FuzzKeydistAttacksMatchReference draws the attack, size, seed, faulty
// node, faceOne (a bit mask), scheme and engine; every draw's filter
// form must match its reference as TestKeydistAttacksMatchReference
// asserts. The first three setup attacks run at t = 1 with any faulty
// node; the rest at t = 2, an fdAttack's faulty node being P_1 or P_2.
func FuzzKeydistAttacksMatchReference(f *testing.F) {
	attacks := append(slices.Clone(setupAttacks), fdAttacks...)
	schemes := []string{sig.SchemeEd25519, sig.SchemeHMAC, sig.SchemeToy}
	for _, c := range attackCases() {
		var mask uint16
		for _, id := range c.faceOne.Sorted() {
			mask |= 1 << id
		}
		f.Add(uint8(slices.Index(attacks, c.attack)), uint8(c.n-4), c.seed, uint8(c.faulty), mask,
			uint8(slices.Index(schemes, c.scheme)), c.mesh)
	}
	f.Fuzz(func(t *testing.T, attack, n uint8, seed int64, faulty uint8, mask uint16, scheme uint8, mesh bool) {
		c := attackCase{
			attack: attacks[int(attack)%len(attacks)],
			n:      4 + int(n)%7,
			t:      1,
			seed:   seed,
			scheme: schemes[int(scheme)%len(schemes)],
			mesh:   mesh,
		}
		c.faulty = model.NodeID(int(faulty) % c.n)
		if !slices.Contains(setupAttacks[:3], c.attack) {
			c.t = 2
		}
		if c.onFD() {
			c.faulty = model.NodeID(1 + (int(faulty)+1)%2)
		}
		c.faceOne = model.NewNodeSet()
		for id := 0; id < c.n; id++ {
			if mask&(1<<id) != 0 {
				c.faceOne.Add(model.NodeID(id))
			}
		}
		if err := c.matchesReference(t, simtest.Mutant{}); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	})
}

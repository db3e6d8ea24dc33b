package ba

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// SM(t) and FDBA's fallback relay through one signed flood (flood.go).
// The nodes they replaced are the oracles in flood_ref_test.go: driven
// round by round on the same scripted inboxes, each node and its
// reference twin must send the same messages, finish together, reach the
// same outcome and make the same predicate tests — and the flood may
// allocate no more than they did.

// floodConfigs are the system sizes a script picks from.
var floodConfigs = []model.Config{{N: 4, T: 1}, {N: 5, T: 2}, {N: 6, T: 2}}

// The fuzz encoding of one scripted message is six bytes:
//
//	m0: bit 0 — the flood's own kind (0) or another (1); bits 1–3 — a
//	    mutation (mut* below; 0–3 leave the message intact); bits 4–5 —
//	    which other kind (FDBA: FAULT, ECHO, phase-1 chain value);
//	m1: bits 0–1 — chain length − 1; bits 4–6 — which value;
//	s0…s3: the signers, each taken mod n; the first is the sender P_0
//	    unless s0 has its top bit set.
//
// A script is a header byte (bit 0: SM or FDBA; the rest picks a
// config), the receiver's ID, then per round a message count (mod 8) and
// that many messages. Bytes past the end read as zero.
const (
	mutForge = 4 // flip the last byte: the outer signature breaks
	mutTail  = 5 // append two bytes: a malformed tail
	mutFrom  = 6 // deliver from the next node: the outer assignee breaks
	mutTrunc = 7 // keep the first half
)

// floodMsg is one scripted message in the encoding's terms.
type floodMsg struct {
	other, sub, mut, val int
	signers              []int
}

func (m floodMsg) encode() []byte {
	b := []byte{byte(m.other | m.mut<<1 | m.sub<<4), byte(len(m.signers) - 1 | m.val<<4), 0, 0, 0, 0}
	for i, s := range m.signers {
		b[2+i] = byte(s)
	}
	if m.signers[0] != 0 {
		b[2] |= 0x80
	}
	return b
}

// floodScript encodes a script: mode 0 is SM, 1 FDBA.
func floodScript(mode, cfg, receiver int, rounds ...[]floodMsg) []byte {
	b := []byte{byte(mode | cfg<<1), byte(receiver)}
	for _, msgs := range rounds {
		b = append(b, byte(len(msgs)))
		for _, m := range msgs {
			b = append(b, m.encode()...)
		}
	}
	return b
}

// floodFixture is one config's signers, the values an SM script sends
// and the evidence an FDBA script floods: valid FD evidence of two
// values at several strengths, evidence not from the sender, evidence
// whose signers skip a node, and bytes that are no chain at all.
type floodFixture struct {
	*dedupeFixture
	smValues [][]byte
	evidence [][]byte
}

func newFloodFixture(t testing.TB, cfg model.Config) *floodFixture {
	fx := &floodFixture{dedupeFixture: newDedupeFixture(t, sig.SchemeToy, cfg.N, cfg.T, 3401)}
	fx.smValues = [][]byte{[]byte("v"), []byte("w"), []byte("x")}
	prefix := func(k int) []int {
		ids := make([]int, k)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	for _, ev := range []struct {
		value   string
		signers []int
	}{
		{"v", prefix(1)}, {"v", prefix(2)}, {"w", prefix(1)}, {"w", prefix(cfg.T + 1)},
		{"v", prefix(cfg.T + 1)}, {"v", []int{1}}, {"v", []int{0, 2}},
	} {
		fx.evidence = append(fx.evidence, fx.chain(t, []byte(ev.value), ev.signers...).Marshal())
	}
	fx.evidence = append(fx.evidence, []byte("not evidence"))
	return fx
}

// message decodes one scripted message for a node of the given mode.
func (fx *floodFixture) message(t testing.TB, r *simtest.Reader, fdba bool) model.Message {
	n := fx.cfg.N
	m0, m1 := r.Next(), r.Next()
	sb := [4]int{r.Next(), r.Next(), r.Next(), r.Next()}
	signers := make([]int, 1+m1&3)
	for i := range signers {
		signers[i] = sb[i] % n
	}
	if sb[0]&0x80 == 0 {
		signers[0] = 0
	} else {
		signers[0] = (sb[0] & 0x7f) % n
	}
	val := (m1 >> 4) & 7
	kind, value := model.KindSigned, fx.smValues[val%len(fx.smValues)]
	if fdba {
		kind, value = model.KindFallback, fx.evidence[val]
	}
	if m0&1 == 1 {
		switch {
		case !fdba:
			kind = model.KindChainValue
		case (m0>>4)%3 == 0:
			kind, value, signers = model.KindFault, []byte(faultTag), signers[:1]
		case (m0>>4)%3 == 1:
			kind, value = model.KindFaultEcho, []byte(faultTag)
			if len(signers) > 2 {
				signers = signers[:2]
			}
		default:
			kind, value = model.KindChainValue, []byte("v")
			for i := range signers {
				signers[i] = i % n
			}
		}
	}
	msg := model.Message{From: model.NodeID(signers[len(signers)-1]), Kind: kind, Payload: fx.chain(t, value, signers...).Marshal()}
	switch (m0 >> 1) & 7 {
	case mutForge:
		msg.Payload[len(msg.Payload)-1] ^= 0x01
	case mutTail:
		msg.Payload = append(msg.Payload, 0xde, 0xad)
	case mutFrom:
		msg.From = (msg.From + 1) % model.NodeID(n)
	case mutTrunc:
		msg.Payload = msg.Payload[:len(msg.Payload)/2]
	}
	return msg
}

// inboxes decodes a script's rounds for a node of the given mode: per
// round a message count (mod 8) and that many messages.
func (fx *floodFixture) inboxes(t testing.TB, r *simtest.Reader, fdba bool, rounds int) [][]model.Message {
	inboxes := make([][]model.Message, rounds)
	for i := range inboxes {
		for k := r.Next() % 8; k > 0; k-- {
			inboxes[i] = append(inboxes[i], fx.message(t, r, fdba))
		}
	}
	return inboxes
}

// record steps node id's process p through inboxes from an empty verify
// memo, under m, with each round's predicate tests as the probe.
func (fx *floodFixture) record(id model.NodeID, p sim.Process, inboxes [][]model.Message, m simtest.Mutant) []*simtest.Recorder {
	fx.dir.memo = new(sig.VerifyMemo)
	fx.tests = 0
	rec := simtest.Record(m.Wrap(int(id), p), 1, func() int {
		n := fx.tests
		fx.tests = 0
		return n
	})
	for i, inbox := range inboxes {
		rec.Step(i+1, inbox)
	}
	recs := make([]*simtest.Recorder, fx.cfg.N)
	recs[id] = rec
	return recs
}

// floodSeeds script every case the relay rule distinguishes, for SM at
// n=5 t=2 (receiver 3, and the sender) and for FDBA's fallback.
func floodSeeds() [][]byte {
	type m = floodMsg
	fault := m{other: 1, sub: 0, signers: []int{1}}
	tailChain := m{other: 1, sub: 2, signers: []int{0, 1, 2}} // phase 1: P_3's chain from P_2
	var none []m
	return [][]byte{
		// SM: an honest chain, a held value relayed again, a new one, a full chain.
		floodScript(0, 1, 3, none, []m{{signers: []int{0}}}, []m{{signers: []int{0, 1}}, {val: 1, signers: []int{0, 2}}}, []m{{val: 2, signers: []int{0, 1, 2}}}),
		// A forged layer, at the first hop and the second.
		floodScript(0, 1, 3, none, []m{{mut: mutForge, signers: []int{0}}}, []m{{mut: mutForge, val: 1, signers: []int{0, 2}}, {val: 1, signers: []int{0, 2}}}),
		// A repeated signer.
		floodScript(0, 1, 3, none, none, []m{{val: 1, signers: []int{0, 0}}}, []m{{val: 2, signers: []int{0, 1, 1}}}),
		// A chain that does not start at P_0, then its value validly.
		floodScript(0, 1, 3, none, none, []m{{val: 1, signers: []int{1, 2}}, {val: 1, signers: []int{0, 2}}}),
		// A chain carrying the receiver's own signature.
		floodScript(0, 1, 3, none, none, []m{{val: 1, signers: []int{0, 3}}}, []m{{val: 2, signers: []int{0, 3, 1}}}),
		// The wrong hop length: early, late and in round 1.
		floodScript(0, 1, 3, []m{{signers: []int{0}}}, []m{{val: 1, signers: []int{0, 1}}}, []m{{val: 2, signers: []int{0}}}, []m{{val: 1, signers: []int{0, 1}}}),
		// A malformed tail and a truncated chain.
		floodScript(0, 1, 3, none, []m{{mut: mutTail, signers: []int{0}}}, []m{{mut: mutTrunc, val: 1, signers: []int{0, 1}}}),
		// A held value at the sender, another kind, the wrong sender.
		floodScript(0, 1, 0, none, []m{{other: 1, val: 1, signers: []int{0}}, {mut: mutFrom, val: 1, signers: []int{0}}}, []m{{signers: []int{0, 1}}}),
		// The smallest and a larger config.
		floodScript(0, 0, 2, none, []m{{signers: []int{0}}}, []m{{val: 1, signers: []int{0, 1}}}),
		floodScript(0, 2, 5, none, []m{{signers: []int{0}}}, []m{{val: 1, signers: []int{0, 1}}}, []m{{val: 2, signers: []int{0, 1, 2}}}),

		// FDBA: P_3 accepts in phase 1, hears a FAULT, presents its
		// evidence, and floods: new evidence (a conflict, then stronger),
		// its own evidence again (held), a forged layer, a repeated
		// signer, its own signature, the wrong hop length, a malformed
		// tail, evidence not from P_0, evidence that skips a signer, and
		// no chain at all.
		floodScript(1, 1, 3, none, none, none, []m{tailChain}, none, []m{fault}, none,
			[]m{{val: 2, signers: []int{1}}, {mut: mutForge, val: 3, signers: []int{1}}, {val: 3, signers: []int{1, 2}}, {mut: mutTail, val: 1, signers: []int{2}}, {val: 7, signers: []int{4}}},
			[]m{{val: 4, signers: []int{1, 2}}, {val: 3, signers: []int{1, 1}}, {val: 3, signers: []int{3, 1}}, {val: 5, signers: []int{2, 4}}, {val: 6, signers: []int{4, 2}}},
			[]m{{val: 1, signers: []int{1, 2, 4}}, {val: 0, signers: []int{1, 2, 4}}}),
		// A phase-1 discovery (a forged chain) announces a FAULT; an echo
		// arrives; the flood opens with no evidence.
		floodScript(1, 1, 3, none, none, none, []m{{other: 1, sub: 2, mut: mutForge, signers: []int{0, 1, 2}}}, []m{{other: 1, sub: 1, signers: []int{1, 2}}}, none, none,
			[]m{{val: 0, signers: []int{2}}}),
		// Never drawn into the fallback: the decide round still reads the flood.
		floodScript(1, 1, 3, none, none, none, []m{tailChain}, none, none, none, none, none,
			[]m{{val: 4, signers: []int{1, 2, 4}}}),
		// The smallest config, through an echoed FAULT.
		floodScript(1, 0, 2, none, []m{{other: 1, sub: 2, signers: []int{0, 1}}}, none, none, []m{{other: 1, sub: 1, signers: []int{1, 3}}},
			[]m{{val: 2, signers: []int{3}}}, []m{{val: 3, signers: []int{3, 1}}}),
	}
}

// diffFlood drives an SM(t) or FDBA node, under m, and its reference twin
// through one scripted run, and returns the run's name and the first
// round whose outbox (To, Kind, payload bytes), Finished, Outcome or
// predicate-test count differs.
func diffFlood(t testing.TB, fixtures []*floodFixture, script []byte, m simtest.Mutant) (string, error) {
	r := simtest.Reader(script)
	h := r.Next()
	fdba, ci := h&1 == 1, (h>>1)%len(floodConfigs)
	cfg := floodConfigs[ci]
	if fixtures[ci] == nil {
		fixtures[ci] = newFloodFixture(t, cfg)
	}
	fx := fixtures[ci]
	id := model.NodeID(r.Next() % cfg.N)
	rounds := SMEngineRounds(cfg.T)
	if fdba {
		rounds = FDBAEngineRounds(cfg.T)
	}
	inboxes := fx.inboxes(t, &r, fdba, rounds)

	var got, want sim.Process
	var err, refErr error
	signer, value := fx.signers[id], []byte("v")
	if fdba {
		got, err = NewFDBANode(cfg, id, signer, fx.dir, value)
		want, refErr = newRefFDBANode(cfg, id, signer, fx.dir, value)
	} else {
		var opts []SMOption
		var refOpts []refSMOption
		if id == Sender {
			opts, refOpts = []SMOption{WithSMValue(value)}, []refSMOption{refWithSMValue(value)}
		}
		got, err = NewSMNode(cfg, id, signer, fx.dir, opts...)
		want, refErr = newRefSMNode(cfg, id, signer, fx.dir, refOpts...)
	}
	if err != nil || refErr != nil {
		t.Fatalf("building %v: %v / %v", id, err, refErr)
	}
	name := fmt.Sprintf("fdba=%v %v n=%d t=%d", fdba, id, cfg.N, cfg.T)
	return name, simtest.Compare(fx.record(id, got, inboxes, m), fx.record(id, want, inboxes, simtest.Mutant{}), simtest.Options{})
}

// FuzzSignedFloodMatchesReference drives an SM(t) or FDBA node and its
// reference twin through one scripted run: every round's outbox (To,
// Kind, payload bytes), Finished, Outcome and predicate-test count must
// match.
func FuzzSignedFloodMatchesReference(f *testing.F) {
	for _, seed := range floodSeeds() {
		f.Add(seed)
	}
	fixtures := make([]*floodFixture, len(floodConfigs))
	f.Fuzz(func(t *testing.T, script []byte) {
		if name, err := diffFlood(t, fixtures, script, simtest.Mutant{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}

// TestFloodDifferentialCatchesAPlantedByte: on the first seed, receiver
// P_3 relays v in round 2 with one byte of its second relay flipped, and
// the differential names that message.
func TestFloodDifferentialCatchesAPlantedByte(t *testing.T) {
	m := simtest.Mutant{Node: 3, Round: 2, Msg: 1}
	_, err := diffFlood(t, make([]*floodFixture, len(floodConfigs)), floodSeeds()[0], m)
	m.Caught(t, err)
}

// The seeds reach every branch they are named for: the fuzz target
// compares the twins, this checks the scripts are not vacuous.
func TestFloodSeedsExerciseTheRelay(t *testing.T) {
	fx := newFloodFixture(t, floodConfigs[1])
	sm, err := NewSMNode(fx.cfg, 3, fx.signers[3], fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	var relays int
	r := simtest.Reader(floodSeeds()[0][2:])
	for i, inbox := range fx.inboxes(t, &r, false, SMEngineRounds(fx.cfg.T)) {
		relays += len(sm.Step(i+1, inbox))
	}
	// Round 2 relays v to 3 nodes, round 3 relays w to 2, round 4 nothing.
	if relays != 5 || !reflect.DeepEqual(sm.ValueSet(), []string{"v", "w", "x"}) {
		t.Errorf("honest seed: %d relays, V=%v; want 5, [v w x]", relays, sm.ValueSet())
	}

	fdba, err := NewFDBANode(fx.cfg, 3, fx.signers[3], fx.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var opened, relayed int
	r = simtest.Reader(floodSeeds()[10][2:])
	for i, inbox := range fx.inboxes(t, &r, true, FDBAEngineRounds(fx.cfg.T)) {
		for _, out := range fdba.Step(i+1, inbox) {
			if out.Kind == model.KindFallback && i+1 == fx.cfg.T+5 {
				opened++
			} else if out.Kind == model.KindFallback {
				relayed++
			}
		}
	}
	if !fdba.InFallback() || opened != fx.cfg.N-1 || relayed == 0 {
		t.Errorf("FDBA seed: in fallback %v, opened to %d, %d relays; want true, %d, some", fdba.InFallback(), opened, relayed, fx.cfg.N-1)
	}
}

// The flood allocates no more than the bodies it replaced: one accepted
// and relayed SM chain, and one FDBA flood relay, each measured on a
// node and on its reference twin under the same warm verify memo. The
// reference bodies make 7 and 12 allocations; the flood makes 4 (no
// copy of each relay batch into the round's outbox, its signers in a
// buffer it keeps, and V keyed by the value where it was parsed: 5 with
// a copy for the key) and 5 (no node list, a relay batch presized to
// n−1−h instead of grown, the evidence check's signers in the node's
// buffer, and the evidence kept where it was parsed: no copy for the
// held set's key or the best value). Both sides run on sig.Chain, which
// as a value parses in 1 allocation and extends in 2; with a chain header
// on the heap the pins were 6 and 10 against 8 and 15, and over the
// spine-based chain 13 and 19 against 14 and 22.
func TestSignedFloodAllocs(t *testing.T) {
	const smPin, fdbaPin = 4, 5
	if raceEnabled {
		t.Skip("allocation counts inflate under -race")
	}
	// sig's scratch pools must not be emptied mid-count; the fixture's
	// memo is its own, so no earlier test decides what the warm-up stores.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f := newDedupeFixture(t, sig.SchemeEd25519, 6, 2, 3402)
	id := model.NodeID(4)

	// A value of more than one byte: Go converts a one-byte slice to a
	// string without allocating, which would hide a copy for V's key.
	smInbox := []model.Message{{From: 0, Kind: model.KindSigned, Payload: f.chain(t, []byte("value"), 0).Marshal()}}
	sm, err := NewSMNode(f.cfg, id, f.signers[id], f.dir)
	if err != nil {
		t.Fatal(err)
	}
	refSM, err := newRefSMNode(f.cfg, id, f.signers[id], f.dir)
	if err != nil {
		t.Fatal(err)
	}
	smAllocs := testing.AllocsPerRun(50, func() {
		clear(sm.flood.held)
		if out := sm.Step(2, smInbox); len(out) != f.cfg.N-2 {
			t.Fatalf("SM relayed %d messages, want %d", len(out), f.cfg.N-2)
		}
	})
	refSMAllocs := testing.AllocsPerRun(50, func() {
		clear(refSM.values)
		refSM.Step(2, smInbox)
	})

	evidence := f.chain(t, []byte("v"), 0).Marshal()
	fdbaInbox := []model.Message{{From: 1, Kind: model.KindFallback, Payload: f.chain(t, evidence, 1).Marshal()}}
	hopOne := f.cfg.T + 6 // the fallback flood's hop-round 1
	fdba, err := NewFDBANode(f.cfg, id, f.signers[id], f.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	refFDBA, err := newRefFDBANode(f.cfg, id, f.signers[id], f.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	fdba.inFallback, refFDBA.inFallback = true, true
	fdbaAllocs := testing.AllocsPerRun(50, func() {
		clear(fdba.flood.held)
		fdba.bestStrength = 0
		if out := fdba.Step(hopOne, fdbaInbox); len(out) != f.cfg.N-2 {
			t.Fatalf("FDBA relayed %d messages, want %d", len(out), f.cfg.N-2)
		}
	})
	refFDBAAllocs := testing.AllocsPerRun(50, func() {
		clear(refFDBA.seenEvidence)
		refFDBA.bestStrength = 0
		refFDBA.Step(hopOne, fdbaInbox)
	})
	if smAllocs > smPin || smAllocs > refSMAllocs {
		t.Errorf("one accepted and relayed SM chain allocates %.0f times; pinned at %d, the reference body %.0f", smAllocs, smPin, refSMAllocs)
	}
	if fdbaAllocs > fdbaPin || fdbaAllocs > refFDBAAllocs {
		t.Errorf("one FDBA flood relay allocates %.0f times; pinned at %d, the reference body %.0f", fdbaAllocs, fdbaPin, refFDBAAllocs)
	}
}

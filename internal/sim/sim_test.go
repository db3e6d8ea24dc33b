package sim

import (
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
)

// echoProc sends its round number to a fixed peer each round, recording
// what it receives.
type echoProc struct {
	id       model.NodeID
	peer     model.NodeID
	received map[int][]model.Message
	rounds   int
}

func (p *echoProc) Step(round int, received []model.Message) []model.Message {
	if p.received == nil {
		p.received = make(map[int][]model.Message)
	}
	// The engine reuses received's backing array across rounds (see the
	// Process contract), so retaining it requires a copy.
	p.received[round] = append([]model.Message(nil), received...)
	p.rounds = round
	return []model.Message{{To: p.peer, Kind: model.KindPlainValue, Payload: []byte{byte(round)}}}
}

func TestEngineLockstepDelivery(t *testing.T) {
	cfg := model.Config{N: 2, T: 0}
	a := &echoProc{id: 0, peer: 1}
	b := &echoProc{id: 1, peer: 0}
	eng, err := New(cfg, []Process{a, b})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run(3)
	if res.Rounds != 3 {
		t.Fatalf("Rounds = %d, want 3", res.Rounds)
	}
	// Round 1 inboxes are empty; round r ≥ 2 carries round r−1's sends.
	if len(a.received[1]) != 0 {
		t.Errorf("round-1 inbox not empty: %v", a.received[1])
	}
	for r := 2; r <= 3; r++ {
		msgs := a.received[r]
		if len(msgs) != 1 {
			t.Fatalf("round %d: got %d messages, want 1", r, len(msgs))
		}
		m := msgs[0]
		if m.From != 1 || m.Round != r-1 || m.Payload[0] != byte(r-1) {
			t.Errorf("round %d message = %+v", r, m)
		}
	}
}

func TestEngineStampsFromAndRound(t *testing.T) {
	// A process trying to spoof From must be corrected by the engine (N2).
	cfg := model.Config{N: 3, T: 0}
	spoofer := ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round != 1 {
			return nil
		}
		return []model.Message{{From: 2, To: 1, Kind: model.KindPlainValue, Round: 99}}
	})
	var got []model.Message
	receiver := ProcessFunc(func(_ int, received []model.Message) []model.Message {
		got = append(got, received...)
		return nil
	})
	eng, err := New(cfg, []Process{spoofer, receiver, Silent{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.Run(2)
	if len(got) != 1 {
		t.Fatalf("received %d messages, want 1", len(got))
	}
	if got[0].From != 0 {
		t.Errorf("From = %v; engine failed to stamp the true sender", got[0].From)
	}
	if got[0].Round != 1 {
		t.Errorf("Round = %d, want 1", got[0].Round)
	}
}

func TestEngineDropsInvalidDestinations(t *testing.T) {
	cfg := model.Config{N: 2, T: 0}
	bad := ProcessFunc(func(round int, _ []model.Message) []model.Message {
		return []model.Message{
			{To: 5, Kind: model.KindPlainValue},  // out of range
			{To: -1, Kind: model.KindPlainValue}, // invalid
			{To: 0, Kind: model.KindPlainValue},  // self
		}
	})
	eng, err := New(cfg, []Process{bad, Silent{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run(2)
	if got := res.Counters.Messages(); got != 0 {
		t.Errorf("recorded %d messages, want 0", got)
	}
}

func TestEngineEarlyExit(t *testing.T) {
	cfg := model.Config{N: 2, T: 0}
	eng, err := New(cfg, []Process{Silent{}, Silent{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run(100)
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1 (early exit)", res.Rounds)
	}
}

func TestEngineViewsRecorded(t *testing.T) {
	cfg := model.Config{N: 2, T: 0}
	a := &echoProc{id: 0, peer: 1}
	b := &echoProc{id: 1, peer: 0}
	rec := &RecordingTracer{}
	eng, err := New(cfg, []Process{a, b}, WithTracer(rec))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.Run(2)
	views := rec.Views(cfg.N)
	if len(views) != 2 {
		t.Fatalf("got %d views", len(views))
	}
	v := views[0]
	if v.Len() != 2 {
		t.Fatalf("view rounds = %d, want 2", v.Len())
	}
	if len(v.Received(1)) != 0 || len(v.Received(2)) != 1 {
		t.Errorf("view contents wrong: r1=%d r2=%d", len(v.Received(1)), len(v.Received(2)))
	}
	if v.Received(0) != nil || v.Received(3) != nil {
		t.Error("out-of-range rounds should return nil")
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(model.Config{N: 1, T: 0}, []Process{Silent{}}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := New(model.Config{N: 2, T: 0}, []Process{Silent{}}); err == nil {
		t.Error("process count mismatch accepted")
	}
	if _, err := New(model.Config{N: 2, T: 0}, []Process{Silent{}, nil}); err == nil {
		t.Error("nil process accepted")
	}
	if _, err := New(model.Config{N: 2, T: 2}, []Process{Silent{}, Silent{}}); err == nil {
		t.Error("t >= n accepted")
	}
}

func TestInboxDeterministicOrder(t *testing.T) {
	// Two senders to one receiver: inbox order must be by sender ID
	// regardless of send order.
	cfg := model.Config{N: 3, T: 0}
	mk := func(id model.NodeID) Process {
		return ProcessFunc(func(round int, _ []model.Message) []model.Message {
			if round != 1 {
				return nil
			}
			return []model.Message{{To: 2, Kind: model.KindPlainValue, Payload: []byte{byte(id)}}}
		})
	}
	var order []model.NodeID
	recv := ProcessFunc(func(_ int, received []model.Message) []model.Message {
		for _, m := range received {
			order = append(order, m.From)
		}
		return nil
	})
	eng, err := New(cfg, []Process{mk(0), mk(1), recv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.Run(2)
	if !reflect.DeepEqual(order, []model.NodeID{0, 1}) {
		t.Errorf("delivery order = %v, want [0 1]", order)
	}
}

// chatterProc sends seeded-pseudo-random traffic each round, exercising
// the engine's inbox reuse with irregular fan-out.
type chatterProc struct {
	id  model.NodeID
	n   int
	rng io.Reader
}

func (p *chatterProc) Step(round int, received []model.Message) []model.Message {
	if round > 4 {
		return nil
	}
	var b [2]byte
	var out []model.Message
	for q := 0; q < p.n; q++ {
		if model.NodeID(q) == p.id {
			continue
		}
		p.rng.Read(b[:])
		if b[0]%3 == 0 {
			continue // skip some destinations so inbox sizes vary
		}
		out = append(out, model.Message{To: model.NodeID(q), Kind: model.KindPlainValue, Payload: []byte{b[1]}})
	}
	return out
}

func TestEngineRunDeterministicAcrossRuns(t *testing.T) {
	// Two identically-seeded runs must produce byte-identical deliveries
	// and counters; the inbox buffers reused across rounds must not leak
	// state between rounds or runs.
	run := func() (*Result, []model.Message) {
		cfg := model.Config{N: 5, T: 1}
		procs := make([]Process, cfg.N)
		for i := range procs {
			procs[i] = &chatterProc{id: model.NodeID(i), n: cfg.N, rng: SeededReader(NodeSeed(99, i))}
		}
		rec := &RecordingTracer{}
		res, err := RunInstance(cfg, procs, 6, WithTracer(rec))
		if err != nil {
			t.Fatalf("RunInstance: %v", err)
		}
		return res, rec.Messages()
	}
	a, aMsgs := run()
	b, bMsgs := run()
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds differ: %d vs %d", a.Rounds, b.Rounds)
	}
	if !reflect.DeepEqual(a.Counters.Snapshot(), b.Counters.Snapshot()) {
		t.Errorf("counter snapshots differ:\n%v\n%v", a.Counters.Snapshot(), b.Counters.Snapshot())
	}
	if len(aMsgs) == 0 || !reflect.DeepEqual(aMsgs, bMsgs) {
		t.Errorf("deliveries differ between identically-seeded runs (%d vs %d messages)", len(aMsgs), len(bMsgs))
	}
}

func TestSeededReaderDeterministic(t *testing.T) {
	r1 := SeededReader(7)
	r2 := SeededReader(7)
	b1 := make([]byte, 64)
	b2 := make([]byte, 64)
	if _, err := r1.Read(b1); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := r2.Read(b2); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Error("same seed produced different streams")
	}
	r3 := SeededReader(8)
	b3 := make([]byte, 64)
	if _, err := r3.Read(b3); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if reflect.DeepEqual(b1, b3) {
		t.Error("different seeds produced identical streams")
	}
}

func TestNodeSeedSpread(t *testing.T) {
	seen := make(map[int64]bool)
	for run := int64(0); run < 10; run++ {
		for node := 0; node < 10; node++ {
			s := NodeSeed(run, node)
			if seen[s] {
				t.Fatalf("NodeSeed collision at run=%d node=%d", run, node)
			}
			seen[s] = true
		}
	}
}

func TestRecordingTracer(t *testing.T) {
	cfg := model.Config{N: 2, T: 0}
	a := &echoProc{id: 0, peer: 1}
	tracer := &RecordingTracer{}
	eng, err := New(cfg, []Process{a, Silent{}}, WithTracer(tracer))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.Run(3)
	// a sends every round; messages delivered in rounds 2 and 3.
	if got := len(tracer.Messages()); got != 2 {
		t.Errorf("traced %d messages, want 2", got)
	}
}

// TestKeyMaterialSeedDomainSeparation pins the entropy-domain split. The
// tag is folded in after a mixing round precisely so that no run seed
// reproduces the key streams: the naive construction NodeSeed(k^tag, n)
// would hand the whole key domain to run seed k^tag.
func TestKeyMaterialSeedDomainSeparation(t *testing.T) {
	const tag = 0x6B65792D646F6D61
	for _, k := range []int64{0, 1, -5, 19950530} {
		for node := 0; node < 8; node++ {
			if KeyMaterialSeed(k, node) == NodeSeed(k^tag, node) {
				t.Fatalf("key stream reproducible by run seed k^tag (k=%d node=%d)", k, node)
			}
			if KeyMaterialSeed(k, node) == NodeSeed(k, node) {
				t.Fatalf("key and run domains collide at (k=%d node=%d)", k, node)
			}
		}
	}
	if KeyMaterialSeed(7, 3) != KeyMaterialSeed(7, 3) {
		t.Fatal("KeyMaterialSeed is not deterministic")
	}
}

// sortMessagesReflect is the sort.SliceStable form SortMessages had, kept
// as the oracle for its order.
func sortMessagesReflect(msgs []model.Message) {
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].From != msgs[j].From {
			return msgs[i].From < msgs[j].From
		}
		if msgs[i].Kind != msgs[j].Kind {
			return msgs[i].Kind < msgs[j].Kind
		}
		return string(msgs[i].Payload) < string(msgs[j].Payload)
	})
}

// TestSortMessagesMatchesOracle: same order as the reflective sort on
// inboxes full of ties (Round tells equal-keyed messages apart, so a lost
// stability shows) — shuffled, already sorted (the early return), reverse
// sorted, and sorted but for one late arrival — and no allocation at any
// length.
func TestSortMessagesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	payloads := [][]byte{nil, {}, []byte("a"), []byte("ab"), []byte("b"), {0xff}}
	for _, n := range []int{0, 1, 2, 3, 17, 64, 300} {
		shuffled := make([]model.Message, n)
		for i := range shuffled {
			shuffled[i] = model.Message{
				From:    model.NodeID(rng.Intn(4)),
				Kind:    model.MessageKind(rng.Intn(3)),
				Payload: payloads[rng.Intn(len(payloads))],
				Round:   i,
			}
		}
		sorted := slices.Clone(shuffled)
		sortMessagesReflect(sorted)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		late := slices.Clone(sorted)
		if n > 1 {
			late = append(late[1:], late[0])
		}
		for name, msgs := range map[string][]model.Message{
			"shuffled": shuffled, "sorted": sorted, "reversed": reversed, "one late arrival": late,
		} {
			want := slices.Clone(msgs)
			sortMessagesReflect(want)
			got := slices.Clone(msgs)
			SortMessages(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d %s: order departs from the sort.SliceStable oracle", n, name)
			}
			if raceEnabled {
				continue
			}
			scratch := make([]model.Message, n)
			if allocs := testing.AllocsPerRun(20, func() {
				copy(scratch, msgs)
				SortMessages(scratch)
			}); allocs != 0 {
				t.Errorf("n=%d %s: SortMessages allocates %.1f times", n, name, allocs)
			}
		}
	}
}

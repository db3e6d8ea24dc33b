package sim

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// fateFunc adapts a function to the Network interface for tests.
type fateFunc func(model.Message, int) int

func (f fateFunc) Fate(m model.Message, round int) int { return f(m, round) }

// onceProc sends a single message in round 1 and then goes quiet,
// reporting finished; the receiver records everything.
type onceProc struct {
	peer model.NodeID
	sent bool
}

func (p *onceProc) Step(round int, _ []model.Message) []model.Message {
	if p.sent {
		return nil
	}
	p.sent = true
	return []model.Message{{To: p.peer, Kind: model.KindPlainValue, Payload: []byte{1}}}
}

func (p *onceProc) Finished() bool { return p.sent }

// sinkProc records each round's inbox and is always finished.
type sinkProc struct {
	received map[int][]model.Message
}

func (p *sinkProc) Step(round int, received []model.Message) []model.Message {
	if p.received == nil {
		p.received = make(map[int][]model.Message)
	}
	p.received[round] = append([]model.Message(nil), received...)
	return nil
}

func (p *sinkProc) Finished() bool { return true }

func TestNetworkDelayShiftsDeliveryRound(t *testing.T) {
	cfg := model.Config{N: 2, T: 0}
	src := &onceProc{peer: 1}
	dst := &sinkProc{}
	delayTwo := fateFunc(func(model.Message, int) int { return 2 })
	eng, err := New(cfg, []Process{src, dst}, WithNetwork(delayTwo))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run(6)
	// Sent in round 1, delayed 2 extra rounds: delivery in round 4, with
	// the restamped effective send round 3 (= 1+d), as the transport
	// runner would stamp it on the wire.
	for r := 1; r <= 3; r++ {
		if len(dst.received[r]) != 0 {
			t.Errorf("round %d inbox = %v, want empty", r, dst.received[r])
		}
	}
	got := dst.received[4]
	if len(got) != 1 || got[0].From != 0 || got[0].Round != 3 {
		t.Fatalf("round-4 inbox = %+v, want one message From=0 Round=3", got)
	}
	// The run must not exit before the pending delivery lands.
	if res.Rounds != 4 {
		t.Errorf("Rounds = %d, want 4 (early exit must wait for the delivery queue)", res.Rounds)
	}
	if res.Counters.Snapshot().Messages != 1 {
		t.Errorf("messages = %d, want 1", res.Counters.Snapshot().Messages)
	}
}

func TestNetworkDropLosesMessageButCountsIt(t *testing.T) {
	cfg := model.Config{N: 2, T: 0}
	src := &onceProc{peer: 1}
	dst := &sinkProc{}
	eng, err := New(cfg, []Process{src, dst}, WithNetwork(fateFunc(func(model.Message, int) int { return Drop })))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run(6)
	for r, msgs := range dst.received {
		if len(msgs) != 0 {
			t.Errorf("round %d delivered %v despite total loss", r, msgs)
		}
	}
	// The send happened and is counted; a dropped message puts nothing
	// in flight, so the run exits the moment everyone is finished.
	if res.Counters.Snapshot().Messages != 1 {
		t.Errorf("messages = %d, want 1 (drops count as sent)", res.Counters.Snapshot().Messages)
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Rounds)
	}
}

func TestNetworkDelayPastMaxRoundsNeverDelivers(t *testing.T) {
	cfg := model.Config{N: 2, T: 0}
	src := &onceProc{peer: 1}
	dst := &sinkProc{}
	eng, err := New(cfg, []Process{src, dst}, WithNetwork(fateFunc(func(model.Message, int) int { return 100 })))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run(4)
	for r, msgs := range dst.received {
		if len(msgs) != 0 {
			t.Errorf("round %d delivered %v, want nothing (delivery past maxRounds)", r, msgs)
		}
	}
	// The pending message holds the engine to the full bound — a missed
	// deadline, exactly N1's observable silence.
	if res.Rounds != 4 {
		t.Errorf("Rounds = %d, want the full 4", res.Rounds)
	}
}

func TestNetworkIdealFatesMatchNilNetwork(t *testing.T) {
	// A network that answers 0 for everything must leave the run
	// byte-identical to no network at all — deliveries, rounds, counters.
	run := func(opts ...Option) (*Result, []model.Message) {
		cfg := model.Config{N: 3, T: 0}
		procs := []Process{
			&echoProc{id: 0, peer: 1},
			&echoProc{id: 1, peer: 2},
			&echoProc{id: 2, peer: 0},
		}
		rec := &RecordingTracer{}
		eng, err := New(cfg, procs, append(opts, WithTracer(rec))...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return eng.Run(5), rec.Messages()
	}
	ideal, idealMsgs := run(WithNetwork(fateFunc(func(model.Message, int) int { return 0 })))
	bare, bareMsgs := run()
	if ideal.Rounds != bare.Rounds {
		t.Errorf("Rounds: ideal-net %d, nil-net %d", ideal.Rounds, bare.Rounds)
	}
	if len(bareMsgs) == 0 || !reflect.DeepEqual(idealMsgs, bareMsgs) {
		t.Errorf("deliveries diverge under an all-zero-fate network")
	}
	if !reflect.DeepEqual(ideal.Counters.Snapshot(), bare.Counters.Snapshot()) {
		t.Errorf("counters diverge: %v vs %v", ideal.Counters.Snapshot(), bare.Counters.Snapshot())
	}
}

func TestNetLinkSeedDirectedAndSpread(t *testing.T) {
	seen := make(map[int64]bool)
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			if from == to {
				continue
			}
			s := NetLinkSeed(7, from, to)
			if seen[s] {
				t.Errorf("link seed collision at (%d,%d)", from, to)
			}
			seen[s] = true
		}
	}
	if NetLinkSeed(7, 1, 2) == NetLinkSeed(7, 2, 1) {
		t.Error("link seeds are not directed")
	}
	if NetLinkSeed(7, 1, 2) == NetLinkSeed(8, 1, 2) {
		t.Error("link seeds ignore the run seed")
	}
	// Link streams must not collide with the node-seed domain that feeds
	// key material and handshake nonces.
	if NetLinkSeed(7, 1, 2) == NodeSeed(NodeSeed(7, 1), 2) {
		t.Error("link domain not separated from node-seed domain")
	}
}

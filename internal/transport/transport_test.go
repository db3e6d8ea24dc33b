package transport_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/obs"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/transport"
)

// buildEndpoints returns one Transport per node for the given mesh kind,
// closed when the test ends; opts configure the tcp mesh's links.
func buildEndpoints(t *testing.T, kind string, n int, opts ...transport.ConnOption) []transport.Transport {
	t.Helper()
	switch kind {
	case "memory":
		return transport.NewMemoryMesh(n).Endpoints()
	case "tcp":
		lb, err := transport.BootLoopback(context.Background(), n, opts...)
		if err != nil {
			t.Fatalf("mesh: %v", err)
		}
		t.Cleanup(lb.Close)
		return lb.Endpoints
	default:
		t.Fatalf("unknown mesh kind %q", kind)
		return nil
	}
}

// faults builds, fresh for each lifecycle, the run options that make
// nodes faulty in key distribution and in the FD run; nil is the honest
// lifecycle.
type faults func(t *testing.T, cfg model.Config) (setup, run []core.RunOption)

// mixedSender is the paper's G3 attacker as P0: it hands P1 one predicate
// and everyone else another during key distribution, then starts the
// chain signed with the key only P1 can verify.
func mixedSender(t *testing.T, cfg model.Config) (setup, run []core.RunOption) {
	t.Helper()
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := adversary.NewMixedPredicateNode(cfg, 0, scheme, sim.SeededReader(78), model.NewNodeSet(1))
	if err != nil {
		t.Fatalf("NewMixedPredicateNode: %v", err)
	}
	sender := sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
		if round != 1 {
			return nil
		}
		chain, err := sig.NewChain([]byte("v"), mixed.SignerFor(1))
		if err != nil {
			t.Errorf("NewChain: %v", err)
			return nil
		}
		return []model.Message{{To: 1, Kind: model.KindChainValue, Payload: chain.Marshal()}}
	})
	return []core.RunOption{core.WithProcess(0, mixed)}, []core.RunOption{core.WithProcess(0, sender)}
}

// lifecycle runs key distribution and one chain FD run of value on a
// seeded cluster over engine (nil: the simulator), under f's faults.
func lifecycle(t *testing.T, cfg model.Config, engine core.Engine, value []byte, f faults) (c *core.Cluster, kd, fdRep core.Report) {
	t.Helper()
	c, err := core.New(cfg, core.WithSeed(77), core.WithEngine(engine))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	var kdOpts, runOpts []core.RunOption
	if f != nil {
		kdOpts, runOpts = f(t, cfg)
	}
	if kd, err = c.EstablishAuthentication(kdOpts...); err != nil {
		t.Fatalf("EstablishAuthentication: %v", err)
	}
	if fdRep, err = c.RunFailureDiscovery(value, runOpts...); err != nil {
		t.Fatalf("RunFailureDiscovery: %v", err)
	}
	return c, kd, fdRep
}

// TestFullLifecycleOverTransports runs key distribution AND a chain FD
// run over each transport — the same mesh for both phases — asserting
// the exact message counts and decisions the simulator produces: the
// protocols are transport-agnostic.
func TestFullLifecycleOverTransports(t *testing.T) {
	for _, kind := range []string{"memory", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			n, tol := 5, 1
			value := []byte("over the wire")
			engine := transport.MeshEngine(buildEndpoints(t, kind, n))
			c, kd, rep := lifecycle(t, model.Config{N: n, T: tol}, engine, value, nil)

			if got, want := kd.Snapshot.Messages, keydist.ExpectedMessages(n); got != want {
				t.Errorf("keydist messages = %d, want %d", got, want)
			}
			for _, node := range c.Nodes() {
				if !node.Accepted() {
					t.Fatalf("%v accepted %d/%d predicates over %s", node.ID(), node.Directory().Len(), n, kind)
				}
			}
			if got, want := rep.Snapshot.Messages, n-1; got != want {
				t.Errorf("fd messages = %d, want %d", got, want)
			}
			if len(rep.Outcomes) != n {
				t.Errorf("%d outcomes over %s, want %d", len(rep.Outcomes), kind, n)
			}
			for _, o := range rep.Outcomes {
				if !o.Decided || !bytes.Equal(o.Value, value) {
					t.Errorf("%v outcome over %s: %v", o.Node, kind, o)
				}
			}
		})
	}
}

// TestRunnerViewMatchesSimulator: the same seeded cluster produces the
// same directories and the same reports — rounds included — under the
// simulator and over each transport, with honest key distribution and
// with a corrupt one (the G3 attacker as sender, discovered in the run).
func TestRunnerViewMatchesSimulator(t *testing.T) {
	n, tol := 4, 1
	cfg := model.Config{N: n, T: tol}
	for _, tc := range []struct {
		name     string
		faults   faults
		survived int
	}{
		{"honest", nil, n},
		{"mixed-predicate sender", mixedSender, n - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			simC, simKD, simFD := lifecycle(t, cfg, nil, []byte("v"), tc.faults)
			if simFD.FailureDiscovered() != (tc.faults != nil) {
				t.Errorf("simulator run discovered = %v", simFD.FailureDiscovered())
			}
			for _, kind := range []string{"memory", "tcp"} {
				c, kd, rep := lifecycle(t, cfg, transport.MeshEngine(buildEndpoints(t, kind, n)), []byte("v"), tc.faults)
				if !reflect.DeepEqual(kd, simKD) {
					t.Errorf("keydist report over %s = %v, simulator's %v", kind, kd, simKD)
				}
				if !reflect.DeepEqual(rep, simFD) {
					t.Errorf("fd report over %s = %v, simulator's %v", kind, rep, simFD)
				}
				// Identical surviving directories (same seeds → same keys →
				// same fingerprints), the faulty node's entries included.
				survived := 0
				for i := 0; i < n; i++ {
					a, b := simC.Nodes()[i], c.Nodes()[i]
					if (a == nil) != (b == nil) {
						t.Fatalf("%s: P%d kept its keys on one engine only", kind, i)
					}
					if a == nil {
						continue
					}
					survived++
					for j := 0; j < n; j++ {
						if !a.Directory().AgreesWith(b.Directory(), model.NodeID(j)) {
							t.Errorf("%s: presence or fingerprint mismatch at (%d,%d)", kind, i, j)
						}
					}
				}
				if survived != tc.survived {
					t.Errorf("%s: %d directories survived key distribution, want %d", kind, survived, tc.survived)
				}
			}
		})
	}
}

// scripted sends one message to its right-hand neighbour in every round
// up to sendUntil and reports finished from round finishAt on.
type scripted struct {
	self, n             int
	sendUntil, finishAt int
	round               int
}

func (s *scripted) Step(round int, _ []model.Message) []model.Message {
	s.round = round
	if round > s.sendUntil {
		return nil
	}
	return []model.Message{{To: model.NodeID((s.self + 1) % s.n), Kind: model.KindEcho}}
}

func (s *scripted) Finished() bool { return s.round >= s.finishAt }

// fateFunc adapts a function to sim.Network.
type fateFunc func(m model.Message, round int) int

func (f fateFunc) Fate(m model.Message, round int) int { return f(m, round) }

// TestRunnersStopAtTheEnginesRound pins the quiet bit: the runners stop
// at exactly the round the lockstep engine's early exit picks, when the
// processes go quiet before the bound, when a delayed message is still in
// flight past the point everyone finished, and when a churned node never
// finishes.
func TestRunnersStopAtTheEnginesRound(t *testing.T) {
	const n, maxRounds = 4, 8
	quietAt3 := func() []sim.Process {
		procs := make([]sim.Process, n)
		for i := range procs {
			procs[i] = &scripted{self: i, n: n, sendUntil: 2, finishAt: 3}
		}
		return procs
	}
	cases := []struct {
		name  string
		procs func() []sim.Process
		net   sim.Network
		want  int
	}{
		{name: "quiet before the bound", procs: quietAt3, want: 3},
		{
			// P0's round-1 message is held 5 rounds: stamped 6, delivered
			// in 7, long after everyone finished in round 3.
			name:  "delayed past the quiet point",
			procs: quietAt3,
			net: fateFunc(func(m model.Message, round int) int {
				if m.From == 0 && round == 1 {
					return 5
				}
				return 0
			}),
			want: 7,
		},
		{
			// A churned node whose restart lies past the bound never
			// reports finished.
			name: "never-finishing churner",
			procs: func() []sim.Process {
				procs := quietAt3()
				procs[1] = netcond.NewChurner(procs[1], netcond.ChurnSpec{Node: 1, Crash: 2, Restart: maxRounds + 1}, nil, nil)
				return procs
			},
			want: maxRounds,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := model.Config{N: n, T: 1}
			simCounters := metrics.NewCounters()
			engine, err := sim.New(cfg, tc.procs(), sim.WithCounters(simCounters), sim.WithNetwork(tc.net))
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			if got := engine.Run(maxRounds).Rounds; got != tc.want {
				t.Fatalf("lockstep engine ran %d rounds, want %d", got, tc.want)
			}
			counters := metrics.NewCounters()
			got, err := transport.MeshEngine(buildEndpoints(t, "memory", n))(tc.procs(), maxRounds, counters, nil, tc.net)
			if err != nil {
				t.Fatalf("mesh engine: %v", err)
			}
			if got != tc.want {
				t.Errorf("runners ran %d rounds, the engine %d", got, tc.want)
			}
			if !reflect.DeepEqual(counters.Snapshot(), simCounters.Snapshot()) {
				t.Errorf("runners counted %v, the engine %v", counters.Snapshot(), simCounters.Snapshot())
			}
		})
	}
}

// TestMeshEngineSerialisesTracers is the one-tracer contract under the
// race detector: an observer's per-run engine tracer (not safe for
// concurrent use), a writer tracer and a lossy network model with an
// emitter are each shared by the n runner goroutines of a churned run,
// and the report still equals the bare simulator's.
func TestMeshEngineSerialisesTracers(t *testing.T) {
	n, tol := 7, 2
	cfg := model.Config{N: n, T: tol}
	spec, err := netcond.Parse("latency=uniform-0-2,loss=0.2,churn=2@2-4")
	if err != nil {
		t.Fatalf("netcond.Parse: %v", err)
	}
	run := func(opts ...core.Option) core.Report {
		c, err := core.New(cfg, append(opts, core.WithSeed(5))...)
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		if _, err := c.EstablishAuthentication(); err != nil {
			t.Fatalf("EstablishAuthentication: %v", err)
		}
		rep, err := c.RunFailureDiscovery([]byte("v"), core.WithProtocol(core.ProtocolSM),
			core.WithNetwork(netcond.NewModel(spec, n, 5)), core.WithChurn(spec.Churn[0]))
		if err != nil {
			t.Fatalf("RunFailureDiscovery: %v", err)
		}
		return rep
	}
	want := run()

	sink := &obs.MemorySink{}
	rec := obs.NewRecorder(sink)
	var trace bytes.Buffer
	tracer := sim.NewWriterTracer(&trace)
	got := run(core.WithObserver(rec), core.WithTracer(tracer),
		core.WithEngine(transport.MeshEngine(buildEndpoints(t, "memory", n))))
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observed mesh report %v, bare simulator's %v", got, want)
	}
	if trace.Len() == 0 {
		t.Error("writer tracer saw no deliveries")
	}
	for _, scope := range []string{"core.keydist", "core.fdrun", "net.churn.crash", "net.churn.restart", "net.drop", "net.delay"} {
		if len(sink.Scoped(scope)) == 0 {
			t.Errorf("no %s event from the mesh run", scope)
		}
	}
	// Round spans are the lockstep engine's; the mesh emits none.
	if evs := sink.Scoped("sim.round"); len(evs) != 0 {
		t.Errorf("%d sim.round events from the mesh engine, want none", len(evs))
	}
}

func TestMemoryMeshBasics(t *testing.T) {
	mesh := transport.NewMemoryMesh(3)
	a := mesh.Endpoint(0)
	b := mesh.Endpoint(1)
	if a.Self() != 0 {
		t.Errorf("Self = %v", a.Self())
	}
	if got := a.Peers(); len(got) != 2 {
		t.Errorf("Peers = %v", got)
	}
	if err := a.Send(1, []byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	from, frame, err := b.Recv()
	if err != nil || from != 0 || string(frame) != "ping" {
		t.Errorf("Recv = %v %q %v", from, frame, err)
	}
	if err := a.Send(0, []byte("self")); err == nil {
		t.Error("send-to-self accepted")
	}
	if err := a.Send(9, []byte("oob")); err == nil {
		t.Error("out-of-range destination accepted")
	}
	b.Close()
	if _, _, err := b.Recv(); err == nil {
		t.Error("Recv after Close succeeded")
	}
}

func TestTCPMeshCloseUnblocksRecv(t *testing.T) {
	endpoints := buildEndpoints(t, "tcp", 2)
	done := make(chan error, 1)
	go func() {
		_, _, err := endpoints[0].Recv()
		done <- err
	}()
	endpoints[0].Close()
	if err := <-done; err == nil {
		t.Error("Recv not unblocked by Close")
	}
}

// With a read timeout on its links, a mesh whose peer stays silent must
// fail — Recv returning an error that names the peer — instead of
// blocking its reader, and the lockstep barrier behind it, forever.
func TestTCPMeshSilentPeerFailsMesh(t *testing.T) {
	endpoints := buildEndpoints(t, "tcp", 2, transport.WithConnReadTimeout(50*time.Millisecond))
	_, _, err := endpoints[0].Recv()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("peer %v failed", model.NodeID(1))) {
		t.Fatalf("Recv beside a silent peer = %v, want an error naming peer %v", err, model.NodeID(1))
	}
}

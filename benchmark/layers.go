package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/ba"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The per-layer probes: each times calls into one layer's public API, so
// an end-to-end number can be taken apart down the stack
// sig -> keydist -> sim -> fd/ba -> core -> protocol -> campaign ->
// sched -> service -> transport. They do not depend on the workload and
// run once per process.

// prober runs the probes and collects their values by metric name.
type prober struct {
	origin
	// budget bounds one probe's timed runs; maxRuns caps them.
	budget  time.Duration
	maxRuns int
	minRuns int
	quick   bool
	trace   *tracer
	out     map[string]float64
}

func newProber(o origin, seconds float64, quick bool, tr *tracer) *prober {
	p := &prober{origin: o, maxRuns: 2000, minRuns: 3, quick: quick, trace: tr, out: make(map[string]float64)}
	// The probes share what the traced workload leaves of the run; about
	// fifty budgets are spent (the ladder takes twelve, the sweeps ten).
	p.budget = time.Duration(seconds * 0.6 / 50 * float64(time.Second))
	if quick {
		p.maxRuns, p.minRuns = 100, 1
	}
	return p
}

// sample times fn until the probe's budget or run cap is reached; prep,
// when set, runs untimed before each call.
func (p *prober) sample(prep func(), fn func(i int) error) ([]time.Duration, error) {
	var durs []time.Duration
	began := time.Now()
	for i := 0; i < p.maxRuns && (i < p.minRuns || time.Since(began) < p.budget); i++ {
		if prep != nil {
			prep()
		}
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(start))
	}
	return durs, nil
}

// p50 samples fn and stores its median time under name.
func (p *prober) p50(name string, prep func(), fn func(i int) error) error {
	durs, err := p.sample(prep, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.out[name] = medianDuration(durs)
	return nil
}

// run executes every probe.
func (p *prober) run() (map[string]float64, error) {
	steps := []func() error{
		func() error { return p.ladder(sig.SchemeEd25519, ".ed25519") },
		func() error { return p.ladder(sig.SchemeHMAC, ".hmac") },
		func() error { return p.sigScheme(sig.SchemeEd25519, ".ed25519") },
		func() error { return p.sigScheme(sig.SchemeHMAC, ".hmac") },
		p.sigChain,
		p.sigFloor,
		p.keydist,
		p.setupCache,
		p.campaignLayers,
		p.eig,
		p.simEngine,
		p.frameRTT,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// ---- the instance ladder ----

// ladderRungs names the rungs top down. The same instance (chain, n=8,
// t=2, fresh value) is executed one layer deeper at each rung, so a
// rung's self time is its value minus the value of the rung below it.
var ladderRungs = []string{
	"transport.tcp_ns",
	"service.pipe_ns",
	"campaign.run_instance_ns",
	"protocol.run_instance_ns",
	"core.fd_run_ns",
	"fd.chain_sim_ns",
}

// ladderSpans bounds the ladder iterations recorded as spans per scheme.
const ladderSpans = 200

// chainInstance is the ladder's instance for one fresh value.
func chainInstance(scheme string, value []byte, seed, keySeed int64) campaign.Instance {
	return campaign.Instance{Protocol: campaign.ProtoChain, N: serveN, T: serveT, Scheme: scheme,
		Adversary: campaign.AdvNone, Seed: seed, KeySeed: keySeed, Value: value}
}

func (p *prober) ladder(scheme, suffix string) error {
	cfg := model.Config{N: serveN, T: serveT}
	keySeed := p.base()
	cluster, err := core.New(cfg, core.WithSeed(p.base()), core.WithKeySeed(keySeed), core.WithScheme(scheme))
	if err != nil {
		return err
	}
	if _, err := cluster.EstablishAuthentication(); err != nil {
		return err
	}
	signers := make([]sig.Signer, cfg.N)
	dirs := make([]sig.Directory, cfg.N)
	for i := range signers {
		id := model.NodeID(i)
		if signers[i], err = cluster.Signer(id); err != nil {
			return err
		}
		if dirs[i], err = cluster.Directory(id); err != nil {
			return err
		}
	}
	driver, err := protocol.Lookup(protocol.NameChain)
	if err != nil {
		return err
	}
	protoCache, campaignCache := protocol.NewSetupCache(0), protocol.NewSetupCache(0)

	acc := transport.NewPipeAcceptor()
	_, stopPipe := startDaemon(acc)
	defer stopPipe()
	pipeConn, err := acc.Dial()
	if err != nil {
		return err
	}
	pipeClient, err := service.NewClient(pipeConn, "ladder")
	if err != nil {
		return err
	}
	defer pipeClient.Close()

	ln, err := transport.ListenConn("127.0.0.1:0")
	if err != nil {
		return err
	}
	_, stopTCP := startDaemon(ln)
	defer stopTCP()
	tcpClient, err := service.Dial(ln.Addr(), "ladder")
	if err != nil {
		return err
	}
	defer tcpClient.Close()

	serve := func(client *service.Client) func([]byte, int64) error {
		return func(value []byte, seed int64) error {
			reply, err := client.Do(service.Request{Protocol: campaign.ProtoChain, N: cfg.N, T: cfg.T,
				Scheme: scheme, Value: value, Seed: seed, KeySeed: keySeed})
			if err != nil {
				return err
			}
			return checkResult(reply.Result)
		}
	}
	rungs := []func(value []byte, seed int64) error{
		serve(tcpClient),
		serve(pipeClient),
		func(value []byte, seed int64) error {
			return checkResult(campaign.RunInstanceWith(chainInstance(scheme, value, seed, keySeed), campaignCache))
		},
		func(value []byte, seed int64) error {
			_, err := protocol.RunInstance(driver, protocol.Instance{N: cfg.N, T: cfg.T, Scheme: scheme,
				Value: value, Seed: seed, KeySeed: keySeed}, protoCache)
			return err
		},
		func(value []byte, seed int64) error {
			cluster.Reset(seed)
			rep, err := cluster.RunFailureDiscovery(value)
			if err == nil && rep.Snapshot.Messages != cfg.N-1 {
				err = fmt.Errorf("chain run sent %d messages, want n-1 = %d", rep.Snapshot.Messages, cfg.N-1)
			}
			return err
		},
		func(value []byte, _ int64) error {
			procs := make([]sim.Process, cfg.N)
			nodes := make([]*fd.ChainNode, cfg.N)
			for i := range procs {
				var opts []fd.ChainOption
				if model.NodeID(i) == fd.Sender {
					opts = append(opts, fd.WithValue(value))
				}
				node, err := fd.NewChainNode(cfg, model.NodeID(i), signers[i], dirs[i], opts...)
				if err != nil {
					return err
				}
				procs[i], nodes[i] = node, node
			}
			res, err := sim.RunInstance(cfg, procs, core.EngineRounds(core.ProtocolChain, cfg.T))
			if err != nil {
				return err
			}
			if got := res.Counters.Messages(); got != cfg.N-1 {
				return fmt.Errorf("chain nodes sent %d messages, want n-1 = %d", got, cfg.N-1)
			}
			for _, node := range nodes {
				if out := node.Outcome(); !out.Decided || !bytes.Equal(out.Value, value) {
					return fmt.Errorf("chain node %v did not decide the sender's value", out.Node)
				}
			}
			return nil
		},
	}

	durs := make([][]time.Duration, len(rungs))
	began := time.Now()
	// Iteration -1 warms the caches and pools and is not timed.
	for i := -1; i < p.maxRuns && (i < p.minRuns || time.Since(began) < time.Duration(len(rungs))*p.budget); i++ {
		parent := int64(0)
		for r, rung := range rungs {
			// A value per rung as well as per iteration: a repeated value
			// would be verified from the memo on every rung but the first.
			d := p.draws(streamLadder, r, i)
			value, seed := d.freshValue(), int64(d.next()>>1)
			start := time.Now()
			if err := rung(value, seed); err != nil {
				return fmt.Errorf("ladder %s%s: %w", ladderRungs[r], suffix, err)
			}
			took := time.Since(start)
			if i < 0 {
				continue
			}
			durs[r] = append(durs[r], took)
			if i < ladderSpans {
				parent = p.trace.add(fmt.Sprintf("ladder%s-%d", suffix, i), parent, ladderRungs[r], start, took)
			}
		}
	}
	for r, name := range ladderRungs {
		p.out[name+suffix] = medianDuration(durs[r])
	}
	return nil
}

// ladderSelfTimes turns rung values (top down) into self times. A rung
// that measures below the rung under it (timing noise between two runs
// of the same code) is raised to it first, so self times are never
// negative and always sum to the top rung.
func ladderSelfTimes(rungs []float64) []float64 {
	self := make([]float64, len(rungs))
	below := 0.0
	for i := len(rungs) - 1; i >= 0; i-- {
		v := rungs[i]
		if v < below {
			v = below
		}
		self[i] = v - below
		below = v
	}
	return self
}

// ---- sig ----

func (p *prober) sigScheme(name, suffix string) error {
	scheme, err := sig.ByName(name)
	if err != nil {
		return err
	}
	entropy := sim.SeededReader(p.base())
	signer, err := scheme.Generate(entropy)
	if err != nil {
		return err
	}
	msg := p.draws(streamFloor, 0, 0).freshValue()
	sg, err := signer.Sign(msg)
	if err != nil {
		return err
	}
	pred := signer.Predicate()
	if err := p.p50("sig.keygen_ns"+suffix, nil, func(int) error {
		_, err := scheme.Generate(entropy)
		return err
	}); err != nil {
		return err
	}
	if err := p.p50("sig.sign_ns"+suffix, nil, func(int) error {
		_, err := signer.Sign(msg)
		return err
	}); err != nil {
		return err
	}
	return p.p50("sig.verify_ns"+suffix, nil, func(int) error {
		if !pred.Test(msg, sg) {
			return fmt.Errorf("%s signature failed its own predicate", name)
		}
		return nil
	})
}

// chainHops is the chain length of the sig.chain_* probes: t+1 = 3, the
// chain a failure-free n=8 t=2 run builds.
const chainHops = serveT + 1

func (p *prober) sigChain() error {
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		return err
	}
	entropy := sim.SeededReader(p.base())
	dir := make(sig.MapDirectory)
	signers := make([]sig.Signer, chainHops+1)
	for i := range signers {
		if signers[i], err = scheme.Generate(entropy); err != nil {
			return err
		}
		dir[model.NodeID(i)] = signers[i].Predicate()
	}
	chain, err := sig.NewChain([]byte("value"), signers[0])
	for i := 1; i < chainHops && err == nil; i++ {
		chain, err = chain.Extend(model.NodeID(i-1), signers[i])
	}
	if err != nil {
		return err
	}
	last := model.NodeID(chainHops - 1)
	verify := func(int) error {
		_, err := chain.Verify(last, dir)
		return err
	}
	if err := p.p50("sig.chain_extend_ns", nil, func(int) error {
		_, err := chain.Extend(last, signers[chainHops])
		return err
	}); err != nil {
		return err
	}
	// The only place the benchmark touches the process-wide memo.
	if err := p.p50("sig.chain_verify_cold_ns", sig.ResetVerifyMemo, verify); err != nil {
		return err
	}
	return p.p50("sig.chain_verify_warm_ns", nil, verify)
}

// sigFloor counts the ladder instance's signs and real verifications
// under the counting scheme and prices them at the measured sign and
// verify cost: the part of an instance the paper's message counts say is
// unavoidable, and the ratio of the whole instance to it.
func (p *prober) sigFloor() error {
	cache := protocol.NewSetupCache(0)
	scheme := counted(sig.SchemeEd25519)
	run := func(seq int) error {
		d := p.draws(streamFloor, 1, seq)
		return checkResult(campaign.RunInstanceWith(chainInstance(scheme, d.freshValue(), int64(d.next()>>1), p.base()), cache))
	}
	if err := run(-1); err != nil { // pays keygen and the handshake
		return err
	}
	signs, tests := signCalls.Load(), testCalls.Load()
	if err := run(-2); err != nil {
		return err
	}
	signs, tests = signCalls.Load()-signs, testCalls.Load()-tests
	floor := float64(signs)*p.out["sig.sign_ns.ed25519"] + float64(tests)*p.out["sig.verify_ns.ed25519"]
	p.out["sig.floor_ns"] = floor
	p.out["sig.floor_ratio"] = p.out["campaign.run_instance_ns.ed25519"] / floor
	return nil
}

// ---- keydist, core, protocol ----

func (p *prober) keydist() error {
	scheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		return err
	}
	entropy := sim.SeededReader(p.base())
	signer, err := scheme.Generate(entropy)
	if err != nil {
		return err
	}
	issued, err := keydist.NewChallenge(0, 1, entropy)
	if err != nil {
		return err
	}
	var chalWire, respWire []byte
	if err := p.p50("keydist.roundtrip_ns", nil, func(int) error {
		chalWire = issued.MarshalTo(chalWire[:0])
		ch, err := keydist.ParseChallenge(chalWire)
		if err != nil {
			return err
		}
		resp, err := keydist.Respond(ch, signer)
		if err != nil {
			return err
		}
		respWire = resp.MarshalTo(respWire[:0])
		echoed, err := keydist.ParseResponse(respWire)
		if err != nil {
			return err
		}
		return keydist.VerifyResponse(issued, echoed, signer.Predicate())
	}); err != nil {
		return err
	}
	for _, n := range []int{8, 16} {
		n := n
		if err := p.p50(fmt.Sprintf("core.establish_ns.n%d", n), nil, func(i int) error {
			c, err := core.New(model.Config{N: n, T: serveT}, core.WithSeed(p.base()), core.WithKeySeed(p.base()+int64(i)))
			if err != nil {
				return err
			}
			rep, err := c.EstablishAuthentication()
			if err != nil {
				return err
			}
			if got, want := rep.Snapshot.Messages, keydist.ExpectedMessages(n); got != want {
				return fmt.Errorf("key distribution at n=%d sent %d messages, want 3n(n-1) = %d", n, got, want)
			}
			if n == serveN {
				p.out["keydist.messages_per_setup"] = float64(rep.Snapshot.Messages)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) setupCache() error {
	inst := protocol.Instance{N: serveN, T: serveT, Scheme: sig.SchemeEd25519, Seed: p.base(), KeySeed: p.base()}
	if err := p.p50("protocol.setup_miss_ns", nil, func(i int) error {
		miss := inst
		miss.KeySeed += int64(i)
		_, err := protocol.ClusterSetup(miss, protocol.NewSetupCache(0), true)
		return err
	}); err != nil {
		return err
	}
	cache := protocol.NewSetupCache(0)
	if _, err := protocol.ClusterSetup(inst, cache, true); err != nil {
		return err
	}
	return p.p50("protocol.setup_hit_ns", nil, func(int) error {
		_, err := protocol.ClusterSetup(inst, cache, true)
		return err
	})
}

// ---- campaign, adversary, netcond, sched ----

// timedSweep runs the spec through fn and returns the wall time.
func timedSweep(fn func() (*campaign.Report, error)) (*campaign.Report, time.Duration, error) {
	start := time.Now()
	rep, err := fn()
	if err != nil {
		return nil, 0, err
	}
	for _, res := range rep.Results {
		if err := checkResult(res); err != nil {
			return nil, 0, err
		}
	}
	return rep, time.Since(start), nil
}

func (p *prober) campaignLayers() error {
	// One seed per grid point: the probes replay the sweep four ways, and
	// the full four-seed sweep would take the whole traced run.
	spec := gridSpec(p.origin, 0, p.quick, plain)
	spec.SeedCount = 1
	if err := p.p50("campaign.expand_ns", nil, func(int) error {
		_, err := campaign.Expand(spec)
		return err
	}); err != nil {
		return err
	}
	rep, parallelWall, err := timedSweep(func() (*campaign.Report, error) { return campaign.Run(spec, gridWorkers) })
	if err != nil {
		return err
	}
	if err := p.p50("campaign.report_json_ns", nil, func(int) error {
		_, err := rep.CanonicalJSON()
		return err
	}); err != nil {
		return err
	}

	// Serial replay: every instance timed on its own over one setup cache.
	instances, err := campaign.Expand(spec)
	if err != nil {
		return err
	}
	cache := protocol.NewSetupCache(0)
	// Instance times by protocol and by which axis is off its default: a
	// ratio is taken inside each protocol (the axes skip different
	// protocols, so pooled medians would compare different mixes) and the
	// median over protocols is reported.
	const (
		axisNone = iota
		axisAdversary
		axisNetCond
	)
	type cell struct {
		protocol string
		axis     int
	}
	byCell := make(map[cell][]float64)
	byProtocol := make(map[string][]float64)
	var serial time.Duration
	messages, wireBytes := 0, 0
	replayStart := time.Now()
	starts := make([]time.Time, len(instances))
	took := make([]time.Duration, len(instances))
	for i, inst := range instances {
		starts[i] = time.Now()
		res := campaign.RunInstanceWith(inst, cache)
		took[i] = time.Since(starts[i])
		if err := checkResult(res); err != nil {
			return err
		}
		serial += took[i]
		messages += res.Messages
		wireBytes += res.Bytes
		ns := float64(took[i].Nanoseconds())
		byProtocol[inst.Protocol] = append(byProtocol[inst.Protocol], ns)
		switch {
		case inst.Adversary == campaign.AdvNone && inst.NetCond == "":
			byCell[cell{inst.Protocol, axisNone}] = append(byCell[cell{inst.Protocol, axisNone}], ns)
		case inst.NetCond == "":
			byCell[cell{inst.Protocol, axisAdversary}] = append(byCell[cell{inst.Protocol, axisAdversary}], ns)
		case inst.Adversary == campaign.AdvNone:
			byCell[cell{inst.Protocol, axisNetCond}] = append(byCell[cell{inst.Protocol, axisNetCond}], ns)
		}
	}
	root := p.trace.add("replay", 0, "campaign.replay", replayStart, time.Since(replayStart))
	for i, inst := range instances {
		p.trace.add("replay", root, "campaign.instance "+inst.GroupKey(), starts[i], took[i])
	}
	for _, name := range churnProtocols {
		p.out["campaign.instance_ns_p50."+name] = median(byProtocol[name])
	}
	hits, misses := cache.Stats()
	p.out["protocol.setup_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	p.out["campaign.messages_per_inst"] = float64(messages) / float64(len(instances))
	p.out["campaign.bytes_per_inst"] = float64(wireBytes) / float64(len(instances))
	overhead := func(axis int) float64 {
		var ratios []float64
		for _, name := range churnProtocols {
			if base, under := byCell[cell{name, axisNone}], byCell[cell{name, axis}]; len(base) > 0 && len(under) > 0 {
				ratios = append(ratios, median(under)/median(base))
			}
		}
		return median(ratios)
	}
	p.out["adversary.overhead_ratio"] = overhead(axisAdversary)
	p.out["netcond.overhead_ratio"] = overhead(axisNetCond)
	p.out["campaign.parallel_efficiency"] = serial.Seconds() / (gridWorkers * parallelWall.Seconds())

	_, oneWorkerWall, err := timedSweep(func() (*campaign.Report, error) { return campaign.Run(spec, 1) })
	if err != nil {
		return err
	}
	_, schedWall, err := timedSweep(func() (*campaign.Report, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		coord := sched.NewCoordinator(ctx, sched.Config{})
		server, client := transport.Pipe()
		go coord.Attach(server)
		worker := make(chan error, 1)
		go func() { worker <- sched.RunWorker(ctx, client, sched.WorkerConfig{Name: "probe"}) }()
		rep, err := campaign.RunWith(spec, coord)
		if werr := <-worker; err == nil && werr != nil {
			err = werr
		}
		if err == nil && len(coord.Outcome().DLQ) != 0 {
			err = fmt.Errorf("scheduler dead-lettered %d batches", len(coord.Outcome().DLQ))
		}
		return rep, err
	})
	if err != nil {
		return err
	}
	p.out["sched.dispatch_overhead_ratio"] = schedWall.Seconds() / oneWorkerWall.Seconds()
	return nil
}

// ---- ba, sim ----

func (p *prober) eig() error {
	value := []byte("v")
	for _, c := range []struct{ n, t int }{{16, 3}, {64, 2}, {128, 2}} {
		cfg := model.Config{N: c.n, T: c.t}
		name := fmt.Sprintf("n%d_t%d", c.n, c.t)
		if err := p.p50("ba.eig_run_ns."+name, nil, func(int) error {
			entries := new(atomic.Int64)
			nodes := make([]*ba.EIGNode, cfg.N)
			procs := make([]sim.Process, cfg.N)
			for j := range nodes {
				opts := []ba.EIGOption{ba.WithEntryCounter(entries)}
				if model.NodeID(j) == ba.Sender {
					opts = append(opts, ba.WithEIGValue(value))
				}
				node, err := ba.NewEIGNode(cfg, model.NodeID(j), opts...)
				if err != nil {
					return err
				}
				nodes[j], procs[j] = node, node
			}
			eng, err := sim.New(cfg, procs)
			if err != nil {
				return err
			}
			eng.Run(ba.EIGEngineRounds(cfg.T))
			for j, node := range nodes {
				if d := node.Decision(); !bytes.Equal(d.Value, value) {
					return fmt.Errorf("eig n=%d node %d decided %q, want %q", cfg.N, j, d.Value, value)
				}
			}
			if c.n == 64 {
				p.out["ba.eig_entries_per_run.n64_t2"] = float64(entries.Load())
			}
			return nil
		}); err != nil {
			return err
		}
	}
	batch := make([]ba.OralEntry, 1024)
	for i := range batch {
		batch[i] = ba.OralEntry{Path: []model.NodeID{ba.Sender, model.NodeID(1 + i%63)}, Value: value}
	}
	if err := p.p50("ba.oral_marshal_ns_per_entry", nil, func(int) error {
		if len(ba.MarshalOralEntries(batch)) == 0 {
			return fmt.Errorf("empty oral batch encoding")
		}
		return nil
	}); err != nil {
		return err
	}
	p.out["ba.oral_marshal_ns_per_entry"] /= float64(len(batch))
	return nil
}

// simEngine floods the engine with no-op processes moving about as many
// messages as an n=64 t=2 EIG run (8,001), so the engine's own share of
// ba.eig_run_ns.n64_t2 can be taken off it.
func (p *prober) simEngine() error {
	cfg := model.Config{N: 64, T: 2}
	const floodRounds = 2
	sent := 0
	if err := p.p50("sim.engine_ns_per_msg", nil, func(int) error {
		procs := make([]sim.Process, cfg.N)
		for i := range procs {
			out := make([]model.Message, 0, cfg.N-1)
			for j := 0; j < cfg.N; j++ {
				if j != i {
					out = append(out, model.Message{To: model.NodeID(j), Kind: model.KindOral, Payload: []byte{1}})
				}
			}
			procs[i] = sim.ProcessFunc(func(round int, _ []model.Message) []model.Message {
				if round > floodRounds {
					return nil
				}
				return out
			})
		}
		res, err := sim.RunInstance(cfg, procs, floodRounds+1)
		if err != nil {
			return err
		}
		if sent = res.Counters.Messages(); sent != floodRounds*cfg.N*(cfg.N-1) {
			return fmt.Errorf("flood moved %d messages, want %d", sent, floodRounds*cfg.N*(cfg.N-1))
		}
		return nil
	}); err != nil {
		return err
	}
	p.out["sim.engine_ns_per_msg"] /= float64(sent)
	return nil
}

// ---- transport ----

// frameRTT times a 1 KB echo on a bare Conn, in memory and over TCP.
func (p *prober) frameRTT() error {
	frame := make([]byte, 1024)
	// rtt echoes on far until near closes and times round trips on near.
	rtt := func(name string, near, far transport.Conn) error {
		echoed := make(chan struct{})
		go func() {
			defer close(echoed)
			for {
				frame, err := far.Recv()
				if err != nil || far.Send(frame) != nil {
					return
				}
			}
		}()
		err := p.p50(name, nil, func(int) error {
			if err := near.Send(frame); err != nil {
				return err
			}
			back, err := near.Recv()
			if err == nil && len(back) != len(frame) {
				err = fmt.Errorf("echo returned %d bytes, want %d", len(back), len(frame))
			}
			return err
		})
		near.Close()
		far.Close()
		<-echoed
		return err
	}
	near, far := transport.Pipe()
	if err := rtt("transport.frame_rtt_ns.pipe", near, far); err != nil {
		return err
	}
	ln, err := transport.ListenConn("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	near, err = transport.DialConn(ln.Addr())
	if err != nil {
		return err
	}
	far, err = ln.Accept()
	if err != nil {
		near.Close()
		return err
	}
	return rtt("transport.frame_rtt_ns.tcp", near, far)
}

// ---- service and transport, from the traced serving window ----

// serviceMetrics summarises what the traced window's replies and the
// daemon's own snapshot say about the service and transport layers. A
// workload that sends no requests reports zeros: the layer did no work.
func serviceMetrics(f *serveFacts) map[string]float64 {
	out := map[string]float64{
		"service.do_us_p50": 0, "service.do_us_p99": 0,
		"service.queue_us_p50": 0, "service.queue_us_p99": 0,
		"service.run_us_p50": 0, "service.run_us_p99": 0, "service.wire_us_p50": 0,
		"service.pool_hit_ratio": 0, "service.pool_cells": 0, "service.rejected": 0,
		"transport.bytes_per_inst": 0,
	}
	if f == nil || f.insts == 0 {
		return out
	}
	column := func(pick func(requestTimes) float64) []float64 {
		var all []float64
		for _, requests := range f.requests {
			for _, r := range requests {
				all = append(all, pick(r))
			}
		}
		sort.Float64s(all)
		return all
	}
	do := column(func(r requestTimes) float64 { return r.do })
	queue := column(func(r requestTimes) float64 { return r.queue })
	run := column(func(r requestTimes) float64 { return r.run })
	out["service.do_us_p50"], out["service.do_us_p99"] = percentile(do, 50), percentile(do, 99)
	out["service.queue_us_p50"], out["service.queue_us_p99"] = percentile(queue, 50), percentile(queue, 99)
	out["service.run_us_p50"], out["service.run_us_p99"] = percentile(run, 50), percentile(run, 99)
	out["service.wire_us_p50"] = percentile(column(func(r requestTimes) float64 { return r.wire }), 50)
	hits := f.after.Pool.Hits - f.before.Pool.Hits
	misses := f.after.Pool.Misses - f.before.Pool.Misses
	if hits+misses > 0 {
		out["service.pool_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out["service.pool_cells"] = float64(f.after.Pool.Cells)
	out["service.rejected"] = float64(f.after.Rejected)
	wireStats := f.wire.Snapshot()
	out["transport.bytes_per_inst"] = float64(wireStats.BytesSent+wireStats.BytesRecv) / float64(f.after.Served)
	return out
}

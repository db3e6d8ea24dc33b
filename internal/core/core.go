// Package core is the library's front door: it packages the paper's
// contribution — local authentication plus message-efficient Failure
// Discovery — behind a Cluster type a downstream user programs against.
//
// Lifecycle:
//
//	cluster, _ := core.New(model.Config{N: 16, T: 5})
//	_, _ = cluster.EstablishAuthentication()       // Fig. 1, once: 3n(n−1) msgs
//	rep, _ := cluster.RunFailureDiscovery(value)   // Fig. 2, per run: n−1 msgs
//
// Every run is metered, so the amortization story of the paper's abstract
// ("the effort of establishing local authentication once results in a
// substantial reduction of messages in subsequent failure-discovery
// protocols") is directly observable via Cluster.Ledger.
//
// Fault injection: any node can be replaced by an arbitrary process for
// either phase with the WithProcess run option, or wrapped with
// WithWrappedProcess, which is how the experiments wire in package
// adversary's behaviours.
//
// Both phases are wrappers. The run itself — per node: replaced,
// wrapped, churned or honest; then engine, counters, ledger, span — is
// Cluster.Run, which takes any protocol as a NodeBuilder and a round
// bound and hands back the honest processes for the caller to read.
// Every protocol driver in internal/protocol runs through it.
package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"repro/internal/ba"
	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/obs"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Protocol selects which failure-discovery protocol a run uses.
type Protocol uint8

// Protocols runnable through Cluster.RunFailureDiscovery, and the mark
// of one that is not.
const (
	// ProtocolChain is the authenticated chain protocol of paper Fig. 2
	// (n−1 messages). The default.
	ProtocolChain Protocol = iota
	// ProtocolNonAuth is the non-authenticated baseline ((t+1)(n−1)
	// messages). It ignores the cluster's keys entirely.
	ProtocolNonAuth
	// ProtocolSmallRange is the binary silence-as-default variant.
	ProtocolSmallRange
	// ProtocolFDBA is the Failure-Discovery-to-Byzantine-Agreement
	// extension (paper §4, Hadzilacos & Halpern): chain FD, then a signed
	// fallback flood only when a failure was discovered. Unlike the FD
	// protocols its correct nodes always decide; a phase-1 discovery rides
	// along in the outcome.
	ProtocolFDBA
	// ProtocolSM is the signed-messages Byzantine-agreement algorithm
	// SM(t) of Lamport, Shostak & Pease: O(n²) messages, tolerates any
	// t < n under authentication.
	ProtocolSM
	// ProtocolCustom marks the report of a Cluster.Run: a protocol whose
	// nodes and round bound the caller supplied (vector, eig, any
	// registered driver). Not runnable through RunFailureDiscovery.
	ProtocolCustom
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolChain:
		return "chain"
	case ProtocolNonAuth:
		return "nonauth"
	case ProtocolSmallRange:
		return "smallrange"
	case ProtocolFDBA:
		return "fdba"
	case ProtocolSM:
		return "sm"
	case ProtocolCustom:
		return "custom"
	default:
		return fmt.Sprintf("protocol(%d)", uint8(p))
	}
}

// EngineRounds returns the lockstep engine rounds a full run of the
// protocol needs at fault bound t. This is the round bound
// RunFailureDiscovery enforces and conformance checks runs against.
// Every protocol is enumerated: a new Protocol value without a case
// here panics instead of silently running under the chain bound and
// truncating its schedule.
func EngineRounds(p Protocol, t int) int {
	switch p {
	case ProtocolChain, ProtocolSmallRange:
		return fd.ChainEngineRounds(t)
	case ProtocolNonAuth:
		return fd.NonAuthEngineRounds(t)
	case ProtocolFDBA:
		return ba.FDBAEngineRounds(t)
	case ProtocolSM:
		return ba.SMEngineRounds(t)
	default:
		panic(fmt.Sprintf("core: EngineRounds has no case for %v", p))
	}
}

// Cluster owns n logical nodes, their keys and directories, and a message
// ledger spanning all protocol phases.
//
// Entropy is split into two independent domains so key material and run
// randomness can be reseeded separately: the key domain feeds key
// generation only, the run domain everything per-run (handshake nonces);
// a domain never seeded draws from crypto/rand. The split
// is what makes Reset, NewEstablished and the campaign setup store
// sound: a cluster whose keys derive from key seed k behaves
// byte-identically in every post-establishment run to a fresh cluster
// built with the same k, regardless of which run seeds drew the nonces
// along the way.
type Cluster struct {
	cfg    model.Config
	scheme sig.Scheme
	// keySeed seeds key generation once keySeeded is set (WithSeed,
	// WithKeySeed): reproducible, cacheable key material.
	keySeed   int64
	keySeeded bool
	// keyPinned marks that WithKeySeed set the key domain
	// explicitly, so WithSeed must not override it whatever order the
	// options came in.
	keyPinned bool
	// runSeed seeds per-run entropy once runSeeded is set (WithSeed);
	// only such clusters reseed on Reset (clusters without WithSeed keep
	// drawing nonces from crypto/rand, even when their keys are pinned).
	runSeed   int64
	runSeeded bool

	nodes []*keydist.Node
	// established marks that EstablishAuthentication completed.
	established bool

	ledger Ledger

	// rec receives structured phase spans and per-round engine events
	// when set (WithObserver); nil — the default — is the disabled
	// recorder and costs one nil check per phase. Tracing is a pure
	// reader: it never changes a report.
	rec *obs.Recorder
	// tracer additionally observes every delivered message in both
	// phases (WithTracer), e.g. a sim.WriterTracer behind a -trace flag.
	tracer sim.Tracer
	// engine, when set (WithEngine), runs both phases in place of the
	// lockstep simulator.
	engine Engine
}

// Option configures a Cluster.
type Option func(*Cluster) error

// WithScheme selects the signature scheme by registry name (default
// ed25519).
func WithScheme(name string) Option {
	return func(c *Cluster) error {
		s, err := sig.ByName(name)
		if err != nil {
			return err
		}
		c.scheme = s
		return nil
	}
}

// WithSeed makes all key generation and nonces deterministic from the
// given seed, for reproducible experiments. Key material draws from the
// seed's key domain (sim.KeyMaterialSeed) and per-run randomness from its
// run domain (sim.NodeSeed), so Reset can reseed the second and leave
// the first alone. Production clusters should not set it.
func WithSeed(seed int64) Option {
	return func(c *Cluster) error {
		c.runSeed, c.runSeeded = seed, true
		if !c.keyPinned {
			c.keySeed, c.keySeeded = seed, true
		}
		return nil
	}
}

// WithKeySeed pins the cluster's key material to its own seed,
// independent of the run seed: two clusters sharing a key seed generate
// identical keys even when WithSeed differs. This is the amortization
// hook — the campaign engine gives every instance of a sweep the same
// key seed, so one handshake's nodes can back every instance of their
// (scheme, n) cell (NewEstablished) while staying byte-identical to
// per-instance fresh setup. WithKeySeed wins over WithSeed's key domain
// in either order.
func WithKeySeed(keySeed int64) Option {
	return func(c *Cluster) error {
		c.keySeed, c.keySeeded, c.keyPinned = keySeed, true, true
		return nil
	}
}

// WithObserver attaches a structured-event recorder: the cluster emits
// "core.keydist" and "core.fdrun" spans around its phases and per-round
// "sim.round" spans from the engines underneath. A nil recorder is the
// disabled default; observation never changes protocol behaviour or
// report contents.
func WithObserver(rec *obs.Recorder) Option {
	return func(c *Cluster) error {
		c.rec = rec
		return nil
	}
}

// WithTracer attaches a message tracer (e.g. sim.WriterTracer) to every
// engine the cluster runs, across both phases. It composes with
// WithObserver via sim.MultiTracer.
func WithTracer(t sim.Tracer) Option {
	return func(c *Cluster) error {
		c.tracer = t
		return nil
	}
}

// Engine runs one phase: procs, indexed by node ID, for at most maxRounds
// lockstep rounds, recording every sent message in counters, reporting
// every delivery to tracer (nil: none) and asking net (nil: the ideal
// network) for each message's fate exactly as sim.Engine does — same
// stamps, same order per sender. It returns the rounds executed, which
// must be sim.Engine's count: it stops at the first round after which no
// message is in flight and every sim.Finisher is done.
type Engine func(procs []sim.Process, maxRounds int, counters *metrics.Counters, tracer sim.Tracer, net sim.Network) (rounds int, err error)

// WithEngine runs every phase of the cluster — key distribution and each
// later run — on e instead of the in-process lockstep simulator; nil
// keeps the simulator. transport.MeshEngine is the other implementation:
// one goroutine per node over real links, the same reports message for
// message. Per-round "sim.round" spans (WithObserver) are the
// simulator's: an engine without a global round loop emits none, and the
// phase spans, network points and WithTracer deliveries stay.
func WithEngine(e Engine) Option {
	return func(c *Cluster) error {
		c.engine = e
		return nil
	}
}

// keyRand is node's key-generation stream.
func (c *Cluster) keyRand(node int) io.Reader {
	if !c.keySeeded {
		return rand.Reader
	}
	return sim.SeededReader(sim.KeyMaterialSeed(c.keySeed, node))
}

// runRand is node's per-run entropy stream.
func (c *Cluster) runRand(node int) io.Reader {
	if !c.runSeeded {
		return rand.Reader
	}
	return sim.SeededReader(sim.NodeSeed(c.runSeed, node))
}

// New creates a cluster of n correct nodes with fault bound t.
func New(cfg model.Config, opts ...Option) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	defaultScheme, err := sig.ByName(sig.SchemeEd25519)
	if err != nil {
		return nil, err
	}
	c.scheme = defaultScheme
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// NewEstablished wraps another cluster's established nodes (see Nodes) in
// a fresh cluster with an empty ledger of its own: the
// many-instances-one-setup constructor. Signers and directories are
// read-only once the handshake has run, so any number of clusters, on any
// number of goroutines, may adopt one slice; each behaves byte for byte
// like a cluster that generated the same keys itself. Only cfg.N must
// match the material (key distribution never reads the fault bound). The
// cluster costs one allocation and holds no entropy of its own:
// re-establishing it draws from crypto/rand.
func NewEstablished(cfg model.Config, nodes []*keydist.Node) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) != cfg.N {
		return nil, fmt.Errorf("core: %d established nodes for n=%d", len(nodes), cfg.N)
	}
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("core: established node %d is missing", i)
		}
	}
	return &Cluster{cfg: cfg, scheme: nodes[0].Scheme(), nodes: nodes, established: true}, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() model.Config { return c.cfg }

// Scheme returns the signature scheme in use.
func (c *Cluster) Scheme() sig.Scheme { return c.scheme }

// Ledger returns the cumulative message ledger.
func (c *Cluster) Ledger() *Ledger { return &c.ledger }

// Established reports whether local authentication has been set up.
func (c *Cluster) Established() bool { return c.established }

// Nodes returns the established key-distribution nodes by node ID (nil
// where a run option made the node faulty during key distribution; nil
// before establishment) — what CheckG1 and CheckG2 read. Callers must
// not modify them: NewEstablished shares them.
func (c *Cluster) Nodes() []*keydist.Node { return c.nodes }

// engineTracer combines the cluster's message tracer and, when an
// observer is attached, a fresh per-run obs.EngineTracer. nil when the
// run needs no tracing at all — the engine then skips the tracer seam
// entirely.
func (c *Cluster) engineTracer(proto string) sim.Tracer {
	var et sim.Tracer
	if c.rec.Enabled() {
		et = obs.NewEngineTracer(c.rec, -1, proto)
	}
	switch {
	case c.tracer == nil:
		return et // may be nil: no tracing
	case et == nil:
		return c.tracer
	default:
		return sim.MultiTracer(c.tracer, et)
	}
}

// runEngine runs procs to the round bound on the cluster's engine and
// returns the rounds executed. On the simulator the tracer and network
// seams are attached only when live — the disabled path must not pay even
// the options-slice allocation (one per instance adds up across a sweep).
func (c *Cluster) runEngine(proto string, procs []sim.Process, maxRounds int, counters *metrics.Counters, net sim.Network) (int, error) {
	t := c.engineTracer(proto)
	if c.engine != nil {
		return c.engine(procs, maxRounds, counters, t, net)
	}
	var engine *sim.Engine
	var err error
	switch {
	case t == nil && net == nil:
		engine, err = sim.New(c.cfg, procs, sim.WithCounters(counters))
	case net == nil:
		engine, err = sim.New(c.cfg, procs, sim.WithCounters(counters), sim.WithTracer(t))
	case t == nil:
		engine, err = sim.New(c.cfg, procs, sim.WithCounters(counters), sim.WithNetwork(net))
	default:
		engine, err = sim.New(c.cfg, procs, sim.WithCounters(counters), sim.WithTracer(t), sim.WithNetwork(net))
	}
	if err != nil {
		return 0, err
	}
	return engine.Run(maxRounds).Rounds, nil
}

// netEmitter adapts the cluster's observer into a netcond.Emitter for
// partition/heal/churn/delivery-delay points; nil when no observer is
// attached, so the disabled path costs one nil check.
func (c *Cluster) netEmitter() netcond.Emitter {
	if !c.rec.Enabled() {
		return nil
	}
	rec := c.rec
	return func(scope string, round, node int, attrs string) {
		rec.Emit(obs.Event{Kind: obs.KindPoint, Scope: scope, Inst: -1, Round: round, Node: node, Attrs: attrs})
	}
}

// Reset re-arms the cluster for a new deterministic run sequence under
// seed without paying setup again: the ledger is cleared and the
// run-entropy streams are reseeded, while key material, directories, and
// the established flag all survive. This is the canonical
// many-runs-one-setup idiom — the paper's amortization argument made
// operational: pay EstablishAuthentication once, then Reset between run
// batches instead of rebuilding the cluster.
//
// A Reset cluster is byte-equivalent to a fresh one only when its key
// material is pinned independently of the run seed (WithKeySeed).
// Clusters not created with WithSeed keep drawing run entropy from
// crypto/rand — for them Reset only clears the ledger, even when their
// keys are pinned. Runs that need fresh keys build a fresh cluster with
// another WithKeySeed; many concurrent run sequences over one setup use
// NewEstablished.
//
// The ledger is cleared in place: handles returned by Ledger() earlier
// stay valid and observe the new run sequence.
func (c *Cluster) Reset(seed int64) {
	c.ledger.Reset()
	if c.runSeeded {
		c.runSeed = seed
	}
}

// node returns id's established key-distribution node, or why none.
func (c *Cluster) node(id model.NodeID) (*keydist.Node, error) {
	if !c.established {
		return nil, errors.New("core: authentication not yet established")
	}
	if !id.Valid(c.cfg.N) {
		return nil, fmt.Errorf("core: node id %v out of range", id)
	}
	if c.nodes[id] == nil {
		return nil, fmt.Errorf("core: node %v holds no keys: replaced during key distribution", id)
	}
	return c.nodes[id], nil
}

// Directory returns node id's accepted predicate directory. Only valid
// after EstablishAuthentication, for a node correct in it.
func (c *Cluster) Directory(id model.NodeID) (*keydist.Directory, error) {
	n, err := c.node(id)
	if err != nil {
		return nil, err
	}
	return n.Directory(), nil
}

// Signer returns node id's secret-key handle. Only valid after
// EstablishAuthentication, for a node correct in it.
func (c *Cluster) Signer(id model.NodeID) (sig.Signer, error) {
	n, err := c.node(id)
	if err != nil {
		return nil, err
	}
	return n.Signer(), nil
}

// keydistBuilder is the cluster as key distribution's node builder: a
// fresh keydist.Node over the two entropy domains. A named pointer type
// rather than a closure, so the handshake pays no allocation for it.
type keydistBuilder Cluster

func (b *keydistBuilder) buildNode(id model.NodeID) (sim.Process, error) {
	c := (*Cluster)(b)
	return keydist.NewNode(c.cfg, id, c.scheme, c.runRand(int(id)), keydist.WithKeyRand(c.keyRand(int(id))))
}

// EstablishAuthentication runs the paper's Fig. 1 key-distribution
// protocol across the cluster and retains each correct node's signer and
// directory. The options mean what they mean to Run (WithProtocol is
// ignored likewise); a node they make faulty has no keys afterwards, and
// later authenticated runs must replace it too. It returns the phase
// report; the traffic is also added to the ledger under PhaseKeyDist.
func (c *Cluster) EstablishAuthentication(opts ...RunOption) (Report, error) {
	var run fdRun
	for _, opt := range opts {
		opt(&run)
	}
	run.protocol = 0 // Report.Protocol is PhaseFD's
	rep, honest, span, err := c.run(&run, PhaseKeyDist, "keydist", keydist.RoundsTotal, (*keydistBuilder)(c))
	if err != nil {
		return Report{}, err
	}
	nodes := make([]*keydist.Node, c.cfg.N)
	for i, p := range honest {
		if p == nil {
			continue
		}
		nodes[i] = p.(*keydist.Node)
		rep.Discoveries = append(rep.Discoveries, nodes[i].Discoveries()...)
	}
	c.nodes, c.established = nodes, true
	c.finish(span, rep)
	return rep, nil
}

// RunOption configures one run.
type RunOption func(*fdRun)

// fdRun is one run's options. RunFailureDiscovery also parks its cluster
// and value here, which makes the struct — on the heap anyway, options
// take its address — the run's node builder at no further allocation.
type fdRun struct {
	cluster   *Cluster
	value     []byte
	protocol  Protocol
	overrides map[model.NodeID]sim.Process
	wrappers  map[model.NodeID]func(sim.Process) sim.Process
	network   sim.Network
	churn     map[model.NodeID]netcond.ChurnSpec
}

// WithProtocol selects the protocol RunFailureDiscovery runs (default
// ProtocolChain). Run ignores it: its builder is the protocol.
func WithProtocol(p Protocol) RunOption {
	return func(r *fdRun) { r.protocol = p }
}

// WithProcess replaces node id's process for this run — key distribution
// or any later one — with an arbitrary (typically adversarial) one.
func WithProcess(id model.NodeID, p sim.Process) RunOption {
	return func(r *fdRun) {
		if r.overrides == nil {
			r.overrides = make(map[model.NodeID]sim.Process)
		}
		r.overrides[id] = p
	}
}

// WithWrappedProcess builds node id's protocol process as usual (honoring
// a WithProcess override first) and runs wrap(process) in its place: the
// composition hook for adversary.Wrap-style outbox filters over an
// otherwise correct node. The wrapped node is treated as faulty — its
// outcome is not collected, exactly as for WithProcess overrides.
func WithWrappedProcess(id model.NodeID, wrap func(sim.Process) sim.Process) RunOption {
	return func(r *fdRun) {
		if r.wrappers == nil {
			r.wrappers = make(map[model.NodeID]func(sim.Process) sim.Process)
		}
		r.wrappers[id] = wrap
	}
}

// WithNetwork layers a network-condition model (typically a
// *netcond.Model) under this run's engine: message delivery follows the
// model's fates instead of the ideal next-round schedule. The protocol
// drivers pass key distribution no option — the paper's setup assumes an
// intact network — which is what keeps the campaign's setup store
// condition-independent. When an observer is attached and the
// network supports it, partition/heal/drop/delay events are emitted.
func WithNetwork(net sim.Network) RunOption {
	return func(r *fdRun) { r.network = net }
}

// WithChurn schedules an honest node's crash-and-restart for this run:
// the node is down from spec.Crash and — if spec.Restart is set —
// rejoins at that round rebuilt from its durable state (signer,
// directory, key material), with all volatile protocol state lost.
// This is restart-with-recovery on top of the cluster's durable
// state: recovery re-runs node construction against the already
// established authentication setup, so the rejoined node authenticates
// exactly as before the crash. A churned node is treated as faulty for
// outcome collection (the model has no honest-but-silent nodes); later
// WithChurn calls for the same node replace earlier ones.
func WithChurn(spec netcond.ChurnSpec) RunOption {
	return func(r *fdRun) {
		if r.churn == nil {
			r.churn = make(map[model.NodeID]netcond.ChurnSpec)
		}
		r.churn[model.NodeID(spec.Node)] = spec
	}
}

// NodeBuilder constructs node id's correct process for a run. It must
// build from durable state only (keys, directory, the proposal), so that
// calling it again mid-run is exactly restart-with-recovery: the churn
// wrapper uses it as the rebuild hook when a crashed node rejoins.
type NodeBuilder func(id model.NodeID) (sim.Process, error)

// nodeBuilder is what run calls; an interface rather than the func type
// so RunFailureDiscovery can hand over its options struct instead of a
// per-run closure.
type nodeBuilder interface {
	buildNode(id model.NodeID) (sim.Process, error)
}

func (b NodeBuilder) buildNode(id model.NodeID) (sim.Process, error) { return b(id) }

func (r *fdRun) buildNode(id model.NodeID) (sim.Process, error) {
	return r.cluster.buildNode(r.protocol, r.value, id)
}

// Run executes one run of any lockstep protocol over the cluster's
// engine, observers and ledger: build says what a correct node is, the
// options say which nodes are not (WithProcess, WithWrappedProcess,
// WithChurn) and what the network does to them (WithNetwork), and
// maxRounds is the protocol's deadline. label names the protocol in
// spans and engine events. It returns the metered report (PhaseFD,
// ProtocolCustom, no outcomes — reading them is the caller's protocol
// knowledge) and the processes build returned by node ID, nil where the
// node was overridden, wrapped or churned: the honest nodes, whose
// terminal state the caller scores.
func (c *Cluster) Run(label string, maxRounds int, build NodeBuilder, opts ...RunOption) (Report, []sim.Process, error) {
	var run fdRun
	for _, opt := range opts {
		opt(&run)
	}
	run.protocol = ProtocolCustom
	rep, honest, span, err := c.run(&run, PhaseFD, label, maxRounds, build)
	if err != nil {
		return Report{}, nil, err
	}
	c.finish(span, rep)
	return rep, honest, nil
}

// RunFailureDiscovery executes one failure-discovery run with P_0 as the
// sender of value. The authenticated protocols require
// EstablishAuthentication to have run first; the non-authenticated
// baseline does not.
func (c *Cluster) RunFailureDiscovery(value []byte, opts ...RunOption) (Report, error) {
	run := fdRun{cluster: c, value: value}
	for _, opt := range opts {
		opt(&run)
	}
	if run.protocol != ProtocolNonAuth && !c.established {
		return Report{}, errors.New("core: establish authentication before running an authenticated protocol")
	}
	rep, honest, span, err := c.run(&run, PhaseFD, run.protocol.String(), EngineRounds(run.protocol, c.cfg.T), &run)
	if err != nil {
		return Report{}, err
	}
	for _, p := range honest {
		if p == nil {
			continue
		}
		out := p.(fd.Outcomer).Outcome()
		rep.Outcomes = append(rep.Outcomes, out)
		if out.Discovery != nil {
			rep.Discoveries = append(rep.Discoveries, *out.Discovery)
		}
	}
	c.finish(span, rep)
	return rep, nil
}

// run is the one wiring loop of both phases: per node it decides
// overridden, wrapped, churned or honest, then runs the engine to the
// round bound. Faulty nodes — everything but the last case — owe no
// outcome and keep no keys, so honest is nil at their slots. The caller
// completes the report and finishes it.
func (c *Cluster) run(run *fdRun, phase Phase, label string, maxRounds int, b nodeBuilder) (Report, []sim.Process, obs.Span, error) {
	scope := "core.fdrun"
	if phase == PhaseKeyDist {
		scope = "core.keydist"
	}
	span := c.rec.Begin(obs.Event{Scope: scope, Inst: -1, Node: -1, Proto: label})

	emitter := c.netEmitter()
	if run.network != nil && emitter != nil {
		if o, ok := run.network.(interface{ SetEmitter(netcond.Emitter) }); ok {
			o.SetEmitter(emitter)
		}
	}

	procs := make([]sim.Process, c.cfg.N)
	honest := make([]sim.Process, c.cfg.N)
	for i := 0; i < c.cfg.N; i++ {
		id := model.NodeID(i)
		if p, ok := run.overrides[id]; ok {
			if wrap, ok := run.wrappers[id]; ok {
				p = wrap(p)
			}
			procs[i] = p
			continue
		}
		p, err := b.buildNode(id)
		if err != nil {
			return Report{}, nil, span, fmt.Errorf("core: build %s node %v: %w", label, id, err)
		}
		honest[i] = p
		if wrap, ok := run.wrappers[id]; ok {
			p = wrap(p)
			honest[i] = nil
		}
		if ch, ok := run.churn[id]; ok {
			rebuild := func() (sim.Process, error) { return b.buildNode(id) }
			p = netcond.NewChurner(p, ch, rebuild, emitter)
			honest[i] = nil
		}
		procs[i] = p
	}

	counters := metrics.NewCounters()
	rounds, err := c.runEngine(label, procs, maxRounds, counters, run.network)
	if err != nil {
		return Report{}, nil, span, err
	}
	return Report{
		Phase:    phase,
		Protocol: run.protocol,
		Rounds:   rounds,
		Snapshot: counters.Snapshot(),
	}, honest, span, nil
}

// finish books a completed phase: the report joins the ledger and the
// phase span closes with its traffic summary.
func (c *Cluster) finish(span obs.Span, rep Report) {
	c.ledger.Add(rep)
	if c.rec.Enabled() {
		span.End(obs.Attrs("rounds", rep.Rounds, "msgs", rep.Snapshot.Messages,
			"bytes", rep.Snapshot.Bytes, "discoveries", len(rep.Discoveries)))
	}
}

// buildNode constructs node id's protocol process from the cluster's
// durable state (signer, directory, key material). It is pure with
// respect to volatile protocol state, so calling it again mid-run is
// exactly restart-with-recovery: the netcond churn wrapper uses it as
// the rebuild hook when a crashed node rejoins. A method rather than a
// per-run closure so the ideal path stays allocation-flat.
func (c *Cluster) buildNode(proto Protocol, value []byte, id model.NodeID) (sim.Process, error) {
	if proto == ProtocolNonAuth {
		var nodeOpts []fd.NonAuthOption
		if id == fd.Sender {
			nodeOpts = append(nodeOpts, fd.WithNonAuthValue(value))
		}
		return fd.NewNonAuthNode(c.cfg, id, nodeOpts...)
	}
	n, err := c.node(id)
	if err != nil {
		return nil, err
	}
	signer, dir := n.Signer(), n.Directory()
	switch proto {
	case ProtocolChain:
		var nodeOpts []fd.ChainOption
		if id == fd.Sender {
			nodeOpts = append(nodeOpts, fd.WithValue(value))
		}
		return fd.NewChainNode(c.cfg, id, signer, dir, nodeOpts...)
	case ProtocolSmallRange:
		var nodeOpts []fd.SmallRangeOption
		if id == fd.Sender {
			if len(value) != 1 {
				return nil, fmt.Errorf("core: small-range values are single bits, got %d bytes", len(value))
			}
			nodeOpts = append(nodeOpts, fd.WithBinaryValue(value[0]))
		}
		return fd.NewSmallRangeNode(c.cfg, id, signer, dir, nodeOpts...)
	case ProtocolFDBA:
		return ba.NewFDBANode(c.cfg, id, signer, dir, value)
	case ProtocolSM:
		var nodeOpts []ba.SMOption
		if id == fd.Sender {
			nodeOpts = append(nodeOpts, ba.WithSMValue(value))
		}
		return ba.NewSMNode(c.cfg, id, signer, dir, nodeOpts...)
	default:
		return nil, fmt.Errorf("core: unknown protocol %v", proto)
	}
}

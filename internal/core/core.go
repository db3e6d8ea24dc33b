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
// WithWrappedProcess, which is how internal/protocol wires in package
// adversary's behaviours and key-distribution attacks.
//
// One run loop serves every run — per node: replaced, wrapped, churned
// or honest; then engine, counters, ledger. Cluster.Run is its door for
// any protocol: it takes a NodeBuilder and a round bound and hands back
// the honest processes for the caller to read, and every protocol driver
// in internal/protocol runs through it. core itself builds only Fig. 1's
// nodes (EstablishAuthentication) and Fig. 2's (RunFailureDiscovery,
// the chain-only front door).
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - Cluster.Established: an accessor the behaviour tests read.
//   - PropertyViolation.Error: an Error method.
package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netcond"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Protocol names a protocol to EngineRounds; ProtocolChain is its one
// value. Protocols are drivers in internal/protocol: this type,
// ProtocolChain and EngineRounds exist only because benchmark/layers.go
// compiles against them. A benchmark change can call
// fd.ChainEngineRounds(cfg.T) there instead and delete all three.
type Protocol uint8

// ProtocolChain is the authenticated chain protocol of paper Fig. 2, the
// one RunFailureDiscovery runs. It stays only for benchmark/layers.go;
// see Protocol.
const ProtocolChain Protocol = 0

// EngineRounds returns the lockstep engine rounds of a full chain run at
// fault bound t, fd.ChainEngineRounds(t). It stays only for
// benchmark/layers.go; see Protocol.
func EngineRounds(_ Protocol, t int) int { return fd.ChainEngineRounds(t) }

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
	// memo is the key set's verify memo, handed to each node it builds.
	memo *sig.VerifyMemo

	ledger Ledger

	// tracer observes every delivered message in both phases
	// (WithTracer), e.g. a sim.WriterTracer behind a -trace flag. It is
	// a pure reader: it never changes a report.
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

// WithTracer attaches a message tracer (e.g. sim.WriterTracer) to every
// engine the cluster runs, across both phases.
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
// message and the same WithTracer deliveries.
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
	return KeyRand(c.keySeed, node)
}

// KeyRand is node's key-generation stream under keySeed: its key pair is
// the scheme's first draw, derivable without running the handshake.
func KeyRand(keySeed int64, node int) io.Reader {
	return sim.SeededReader(sim.KeyMaterialSeed(keySeed, node))
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
// where WithProcess replaced the node during key distribution; nil before
// establishment) — what CheckG1 and CheckG2 read. Callers must not modify
// them: NewEstablished shares them.
func (c *Cluster) Nodes() []*keydist.Node { return c.nodes }

// runEngine runs procs to the round bound on the cluster's engine and
// returns the rounds executed. On the simulator the tracer and network
// seams are attached only when live — the disabled path must not pay even
// the options-slice allocation (one per instance adds up across a sweep).
func (c *Cluster) runEngine(procs []sim.Process, maxRounds int, counters *metrics.Counters, net sim.Network) (int, error) {
	t := c.tracer
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
	return keydist.NewNode(c.cfg, id, c.scheme, c.runRand(int(id)), c.memo, keydist.WithKeyRand(c.keyRand(int(id))))
}

// EstablishAuthentication runs the paper's Fig. 1 key-distribution
// protocol across the cluster and retains each node's signer and
// directory, the n directories sharing one fresh verify memo. The options
// mean what they mean to Run. A node they wrap is faulty but keeps its
// own keydist.Node — its key pair and what it accepted — so a later run
// may sign with it; a node they replace keeps no keys, and later
// authenticated runs must replace it too. It returns the phase report,
// the correct nodes' discoveries included; the traffic is also added to
// the ledger under PhaseKeyDist.
func (c *Cluster) EstablishAuthentication(opts ...RunOption) (Report, error) {
	run := fdRun{kept: make([]sim.Process, c.cfg.N)}
	for _, opt := range opts {
		opt(&run)
	}
	c.memo = new(sig.VerifyMemo)
	rep, honest, err := c.run(&run, PhaseKeyDist, "keydist", keydist.RoundsTotal, (*keydistBuilder)(c))
	if err != nil {
		return Report{}, err
	}
	nodes := make([]*keydist.Node, c.cfg.N)
	for i, p := range honest {
		if p == nil {
			nodes[i], _ = run.kept[i].(*keydist.Node) // nil where replaced or churned
			continue
		}
		nodes[i] = p.(*keydist.Node)
		rep.Discoveries = append(rep.Discoveries, nodes[i].Discoveries()...)
	}
	c.nodes, c.established = nodes, true
	c.ledger.Add(rep)
	return rep, nil
}

// RunOption configures one run.
type RunOption func(*fdRun)

// fdRun is one run's options. RunFailureDiscovery also parks its cluster
// and value here, which makes the struct — on the heap anyway, options
// take its address — the chain run's node builder at no further
// allocation.
type fdRun struct {
	cluster   *Cluster
	value     []byte
	overrides map[model.NodeID]sim.Process
	wrappers  map[model.NodeID]func(sim.Process) sim.Process
	network   sim.Network
	churn     map[model.NodeID]netcond.ChurnSpec
	// kept, when set, receives each wrapped node's process as first built.
	kept []sim.Process
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
// drivers never pass it to key distribution — the paper's setup assumes
// an intact network — which is what keeps the campaign's setup store
// condition-independent.
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
// so RunFailureDiscovery and key distribution hand over a struct they
// already hold instead of a per-run closure.
type nodeBuilder interface {
	buildNode(id model.NodeID) (sim.Process, error)
}

func (b NodeBuilder) buildNode(id model.NodeID) (sim.Process, error) { return b(id) }

// buildNode is the chain protocol's correct node: Fig. 2 over id's
// established signer and directory, P_0 sending the run's value.
func (r *fdRun) buildNode(id model.NodeID) (sim.Process, error) {
	n, err := r.cluster.node(id)
	if err != nil {
		return nil, err
	}
	if id == fd.Sender {
		return fd.NewChainNode(r.cluster.cfg, id, n.Signer(), n.Directory(), fd.WithValue(r.value))
	}
	return fd.NewChainNode(r.cluster.cfg, id, n.Signer(), n.Directory())
}

// Run executes one run of any lockstep protocol over the cluster's
// engine, tracer and ledger: build says what a correct node is, the
// options say which nodes are not (WithProcess, WithWrappedProcess,
// WithChurn) and what the network does to them (WithNetwork), and
// maxRounds is the protocol's deadline. label names the protocol in
// build errors and in the report. It returns the metered report
// (PhaseFD, no outcomes — reading them is the caller's protocol
// knowledge) and the processes build returned by node ID, nil where the
// node was overridden, wrapped or churned: the honest nodes, whose
// terminal state the caller scores. Every driver in internal/protocol
// runs through it.
func (c *Cluster) Run(label string, maxRounds int, build NodeBuilder, opts ...RunOption) (Report, []sim.Process, error) {
	var run fdRun
	for _, opt := range opts {
		opt(&run)
	}
	rep, honest, err := c.run(&run, PhaseFD, label, maxRounds, build)
	if err != nil {
		return Report{}, nil, err
	}
	c.ledger.Add(rep)
	return rep, honest, nil
}

// RunFailureDiscovery executes one run of Fig. 2's chain protocol with
// P_0 as the sender of value, reading the correct nodes' outcomes and
// discoveries into the report. It requires EstablishAuthentication to
// have run first. Every other protocol is a driver in internal/protocol,
// which runs through Run.
func (c *Cluster) RunFailureDiscovery(value []byte, opts ...RunOption) (Report, error) {
	run := fdRun{cluster: c, value: value}
	for _, opt := range opts {
		opt(&run)
	}
	rep, honest, err := c.run(&run, PhaseFD, "chain", fd.ChainEngineRounds(c.cfg.T), &run)
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
	c.ledger.Add(rep)
	return rep, nil
}

// run is the one wiring loop of both phases: per node it decides
// overridden, wrapped, churned or honest, then runs the engine to the
// round bound. Faulty nodes — everything but the last case — owe no
// outcome, so honest is nil at their slots. The caller completes the
// report and adds it to the ledger.
func (c *Cluster) run(run *fdRun, phase Phase, label string, maxRounds int, b nodeBuilder) (Report, []sim.Process, error) {
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
			return Report{}, nil, fmt.Errorf("core: build %s node %v: %w", label, id, err)
		}
		honest[i] = p
		if wrap, ok := run.wrappers[id]; ok {
			if run.kept != nil {
				run.kept[i] = p
			}
			p = wrap(p)
			honest[i] = nil
		}
		if ch, ok := run.churn[id]; ok {
			rebuild := func() (sim.Process, error) { return b.buildNode(id) }
			p = netcond.NewChurner(p, ch, rebuild)
			honest[i] = nil
		}
		procs[i] = p
	}

	counters := metrics.NewCounters()
	rounds, err := c.runEngine(procs, maxRounds, counters, run.network)
	if err != nil {
		return Report{}, nil, err
	}
	return Report{
		Phase:    phase,
		Protocol: label,
		Rounds:   rounds,
		Snapshot: counters.Snapshot(),
	}, honest, nil
}

// Package protocol is the extension API every agreement protocol in the
// repository plugs into. A Driver packages one protocol's run path —
// setup preparation, fault wiring, execution, and the raw material the
// conformance predicates score — behind a uniform interface, and the
// package-level registry makes the set of drivers discoverable by name.
//
// The campaign engine (internal/campaign) is the primary consumer: it
// expands declarative sweeps over the registry and runs every instance
// through its driver, so adding a protocol to the full grid — sweeps,
// composable adversaries, setup-cache amortization, worker-sharded
// determinism, F1–F3 conformance gating — means registering one Driver
// in one file, not editing campaign internals. The registry is also the
// seam future execution backends (distributed TCP campaign workers) plug
// into.
//
// The seven built-in drivers are the paper's protocol zoo: the
// authenticated chain failure-discovery protocol (Fig. 2), the
// non-authenticated baseline, the binary small-range variant (§5), the
// beyond-paper vector composition, the OM(t) oral-messages baseline, and
// the two full agreement protocols — FDBA (the §4 failure-discovery-to-
// Byzantine-agreement extension) and SM(t) (signed messages).
//
// Seven drivers, one loop: no driver wires faults. Each prepares a
// core.Cluster (ClusterSetup), and one function compiles the instance's
// adversary strategy and network condition into core run options
// (wiring.go) for the cluster's run loop, which decides silent, wrapped,
// churned or honest per node. A driver supplies only what is its own —
// what a correct node is, a bespoke two-faced sender where it has one,
// and how its nodes' terminal state maps to SubRuns. RunNodes is that
// path in the form a driver registered from outside needs.
package protocol

import (
	"repro/internal/adversary"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netcond"
)

// Instance is one fully specified, independently runnable protocol run:
// a system size and fault bound, a signature scheme, a resolved adversary
// strategy, and the two seed domains. Instances are self-contained —
// drivers derive all key material, RNG streams, and fault placements from
// the fields here, sharing nothing with any other instance.
type Instance struct {
	// N and T are the system size and fault bound.
	N, T int
	// Scheme is the signature-scheme registry name ("" for drivers whose
	// Capabilities report UsesSignatures == false).
	Scheme string
	// Value, when non-empty, overrides the driver's canonical sender
	// proposal — the agreement service threads caller-supplied values
	// through here. Empty keeps each driver's built-in proposal, so every
	// pre-existing campaign expansion is byte-identical. Custom values
	// compose with the honest path; the bespoke equivocating senders keep
	// their canonical two faces.
	Value []byte
	// Strategy is the resolved composable adversary (the zero value runs
	// every node honestly).
	Strategy adversary.Strategy
	// Seed drives every per-run random choice inside the instance.
	Seed int64
	// KeySeed pins the instance's key material independently of Seed; see
	// core.WithKeySeed. Two instances sharing (Scheme, N, KeySeed) share
	// keys, which is what makes cached setup byte-equivalent to fresh.
	KeySeed int64
	// Net, when non-nil, is the network condition the instance runs
	// under: link degradation compiles into a netcond.Model layered under
	// the engine, and churn entries wrap the named honest nodes with
	// scripted crash/restart. nil is the ideal network.
	Net *netcond.Spec
	// SetupServed, when non-nil, receives how the instance's own lookup
	// in the setup store was served: "hit", "miss" (it built the cell) or
	// "wait" (it blocked on another goroutine's build). A run that makes
	// no lookup leaves it alone. The store's counters move with every
	// goroutine sharing it, so a tracer attributing setup to one instance
	// reads it here.
	SetupServed *string
}

// Config returns the instance's model configuration.
func (inst Instance) Config() model.Config { return model.Config{N: inst.N, T: inst.T} }

// Faulty resolves the instance's faulty set — a pure function of the
// strategy, network condition, system size, and run seed. Churned nodes
// count as faulty: the paper's model has no honest-but-silent nodes, so
// a crash/restart node spends its downtime inside the fault budget t.
func (inst Instance) Faulty() model.NodeSet {
	set := inst.Strategy.CorruptSet(inst.N, inst.Seed)
	if inst.Net != nil {
		for _, node := range inst.Net.ChurnNodes() {
			if model.NodeID(node).Valid(inst.N) {
				set.Add(model.NodeID(node))
			}
		}
	}
	return set
}

// Capabilities declares what a driver supports, so generic consumers
// (sweep expansion, the setup cache, adversary wiring) never need
// protocol-specific branches. Every field is a declaration, not a hint:
// expansion skips combinations a driver cannot express, and the runner
// only offers a setup cache to drivers that declare eligibility.
type Capabilities struct {
	// UsesSignatures reports whether the protocol consumes a signature
	// scheme. Unsigned drivers run once per configuration with Scheme ""
	// instead of once per scheme (their runs would be identical).
	UsesSignatures bool
	// CacheableSetup reports whether Prepare may reuse the setup store's
	// established key-distribution material. Drivers whose setup is free
	// (nonauth, eig) declare false, making the skip explicit rather than
	// an implicit branch in the runner.
	CacheableSetup bool
	// SupportsEquivocate reports whether the driver can express a
	// two-faced sender: a distinguished sender with a value range wider
	// than the protocol's silence encoding. smallrange (one bit) and
	// vector (all nodes send) cannot.
	SupportsEquivocate bool
	// RequiresSupermajority restricts the (n, t) axis to n > 3t — the
	// classical resilience bound OM(t) needs even to run.
	RequiresSupermajority bool
	// MaxN bounds the system size (0 = unbounded). eig is O(n^t) and
	// admits at most 256 nodes.
	MaxN int
}

// Supports reports whether the (n, t, strategy) combination is
// expressible under these capabilities. The rules depend only on the
// configuration, never on a seed — a coalition's membership varies per
// seed, so coalition rules are stated over the size, not the members:
//
//   - every driver needs the model's basic sanity (2 ≤ n, 0 ≤ t < n) and
//     its declared axis bounds (RequiresSupermajority, MaxN);
//   - any adversary needs t ≥ 1 (a fault outside the bound proves
//     nothing) and a corrupt set of at most t nodes, all with valid IDs;
//   - a strategy that can corrupt a non-sender node (any coalition, or a
//     fixed set naming one) needs n ≥ 3 so P_1 is never the only other
//     node;
//   - equivocate needs SupportsEquivocate.
func (c Capabilities) Supports(n, t int, strat adversary.Strategy) bool {
	if err := (model.Config{N: n, T: t}).Validate(); err != nil {
		return false
	}
	if c.RequiresSupermajority && n <= 3*t {
		return false
	}
	if c.MaxN > 0 && n > c.MaxN {
		return false
	}
	if strat.IsHonest() {
		return true
	}
	if t < 1 {
		return false
	}
	if strat.CorruptSize() > t || strat.MaxFixedNode() >= n {
		return false
	}
	if strat.CorruptsNonSender() && n < 3 {
		return false
	}
	if strat.HasBehavior(adversary.BehaviorEquivocate) && !c.SupportsEquivocate {
		return false
	}
	return true
}

// SupportsNet reports whether the network condition is expressible on
// top of an already supported (n, t, strategy) combination. Like
// Supports, the rules are seed-independent: churned nodes are extra
// faulty nodes, so they need t ≥ 1, valid IDs, no overlap with the
// strategy's fixed corrupt set (the same node cannot be both), and the
// combined worst-case faulty count — strategy corruption plus churn —
// must stay within t (a seed-driven coalition can only shrink the
// union, never grow it). Link conditions (latency, loss, partitions)
// constrain nothing: they degrade the network, not the processes.
func (c Capabilities) SupportsNet(n, t int, strat adversary.Strategy, net *netcond.Spec) bool {
	if net == nil || len(net.Churn) == 0 {
		return true
	}
	if t < 1 {
		return false
	}
	fixed := make(map[int]bool, len(strat.Nodes))
	for _, id := range strat.Nodes {
		fixed[id] = true
	}
	churned := net.ChurnNodes()
	for _, node := range churned {
		if !model.NodeID(node).Valid(n) || fixed[node] {
			return false
		}
	}
	return strat.CorruptSize()+len(churned) <= t
}

// SubRun is the raw material one conformance evaluation consumes: the
// per-node outcomes of one logical protocol execution with one
// distinguished sender. Most drivers return a single SubRun; vector
// returns one per rotated sender, and the scorer requires every SubRun
// to meet the predicates.
type SubRun struct {
	// Sender is the distinguished sender of this sub-run.
	Sender model.NodeID
	// Initial is the sender's proposal, the reference value for validity.
	Initial []byte
	// Outcomes are the correct nodes' outcomes (drivers exclude overridden
	// and wrapped processes, exactly as the F-condition definitions do).
	Outcomes []model.Outcome
}

// Outcome is the uniform result of one driver run. It carries only what
// every protocol can report — traffic totals, the driver's own agreement
// and discovery summary, and the conformance sub-runs — so the campaign
// layer aggregates and scores any driver without knowing which one ran.
type Outcome struct {
	// Rounds is the number of engine steps the protocol phase ran.
	Rounds int
	// RoundBound is the protocol's deadline: a run exceeding it fails the
	// termination predicate even if everyone decided.
	RoundBound int
	// Snapshot is the protocol-phase traffic (setup traffic, where a
	// protocol needs it, is not counted — the paper amortizes it).
	Snapshot metrics.Snapshot
	// Agreed reports the driver's own agreement summary: every correct
	// node decided and all correct decisions matched (for vector: over
	// every sub-run with a correct sender).
	Agreed bool
	// Discovered reports whether at least one correct node discovered a
	// failure.
	Discovered bool
	// SubRuns are the conformance inputs; see SubRun.
	SubRuns []SubRun
}

// VerdictMapper maps a driver's runs onto the paper's conformance
// predicates. The weak failure-discovery conditions F1–F3 read
// differently per protocol family — what a discovery excuses and where
// the theory permits disagreement — and the mapper is where a driver
// declares its reading, so the scorer in internal/campaign stays free of
// protocol-specific branches.
type VerdictMapper interface {
	// MayDisagree reports whether the theory permits correct nodes to
	// disagree without discovery at (n, t) under a fault-injecting
	// adversary. Honest runs are never excused; the scorer handles that
	// generically.
	MayDisagree(n, t int) bool
	// DiscoveryExempts reports whether a correct node's failure discovery
	// exempts the run from the agreement and validity predicates — the
	// weak-FD reading of F2/F3. Full agreement protocols return false:
	// their fallback must align every correct decision even in runs where
	// failures were discovered, so discoveries never weaken the check.
	DiscoveryExempts() bool
}

// VerdictProfile is a value-type VerdictMapper covering the repository's
// protocol families; drivers embed one of the canned profiles below.
type VerdictProfile struct {
	disagreeAlways          bool
	disagreeBelowResilience bool
	strict                  bool
}

// MayDisagree implements VerdictMapper.
func (p VerdictProfile) MayDisagree(n, t int) bool {
	return p.disagreeAlways || (p.disagreeBelowResilience && n <= 3*t)
}

// DiscoveryExempts implements VerdictMapper.
func (p VerdictProfile) DiscoveryExempts() bool { return !p.strict }

var (
	// VerdictsAuthenticatedFD is the profile of the authenticated weak-FD
	// protocols (chain, vector): their weak properties hold for any
	// f ≤ t — no escape at all, which is the paper's point.
	VerdictsAuthenticatedFD = VerdictProfile{}
	// VerdictsUnauthenticatedFD is the profile of the non-authenticated
	// protocols (nonauth, eig): at or below the classical n ≤ 3t
	// resilience bound the theory does not promise agreement, so those
	// configurations are allowed to disagree.
	VerdictsUnauthenticatedFD = VerdictProfile{disagreeBelowResilience: true}
	// VerdictsSilenceDefault is the profile of the simplified small-range
	// variant: it cannot attribute silence, so an adversary that
	// suppresses the non-default chain silently imposes the default on
	// part of the tail under ANY fault mix (fd.SmallRangeNode's
	// documented limitation).
	VerdictsSilenceDefault = VerdictProfile{disagreeAlways: true}
	// VerdictsAgreement is the strict profile of the full agreement
	// protocols (fdba, sm): disagreement is never excused AND a discovery
	// does not exempt a run — agreement must hold even when the fallback
	// was triggered.
	VerdictsAgreement = VerdictProfile{strict: true}
)

// Setup is the opaque prepared state Prepare hands to Run. Every
// built-in driver's is a *core.Cluster from ClusterSetup — established,
// or bare for the drivers with no setup phase.
type Setup any

// Driver is the uniform run path of one agreement protocol. Drivers are
// stateless and safe for concurrent use: any per-run state lives in the
// Setup value and the processes built inside Run.
type Driver interface {
	// Name is the registry key — the protocol name campaign specs use.
	Name() string
	// Capabilities declares the driver's axes; see Capabilities.
	Capabilities() Capabilities
	// Verdicts is the driver's conformance reading; see VerdictMapper.
	Verdicts() VerdictMapper
	// Prepare resolves the instance's setup, reusing the setup store when
	// non-nil (callers pass nil unless Capabilities().CacheableSetup).
	// The returned Setup must make Run byte-equivalent to a fresh build —
	// key material pinned by Instance.KeySeed is what guarantees it.
	Prepare(inst Instance, cache *SetupCache) (Setup, error)
	// Run executes the instance over the prepared setup.
	Run(inst Instance, setup Setup) (Outcome, error)
}

// RunInstance prepares and runs one instance through its driver,
// consulting the cache only when the driver declares cacheable setup —
// so a driver's declared skip (eig, nonauth) is enforced here, not by
// convention.
func RunInstance(d Driver, inst Instance, cache *SetupCache) (Outcome, error) {
	if !d.Capabilities().CacheableSetup {
		cache = nil
	}
	setup, err := d.Prepare(inst, cache)
	if err != nil {
		return Outcome{}, err
	}
	return d.Run(inst, setup)
}

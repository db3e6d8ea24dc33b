package campaign

import (
	"repro/internal/adversary"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/protocol"
)

// Result is the outcome of one instance. Only plain data — it marshals
// into the campaign report, and equality of two Results is equality of
// their JSON.
type Result struct {
	// Index echoes the instance's expansion position.
	Index int `json:"index"`
	// Group echoes Instance.GroupKey for self-contained reports.
	Group string `json:"group"`
	// Seed echoes the instance seed.
	Seed int64 `json:"seed"`
	// Err is set when the instance could not run; such instances carry
	// no measurements and are counted separately in the aggregate.
	Err string `json:"err,omitempty"`
	// Agreed reports whether every correct node decided and all correct
	// decisions matched (for vector: over every instance with a correct
	// sender).
	Agreed bool `json:"agreed"`
	// Discovered reports whether at least one correct node discovered a
	// failure (for fdba: whether the fallback was triggered).
	Discovered bool `json:"discovered"`
	// Rounds is the number of engine steps the protocol phase ran.
	Rounds int `json:"rounds"`
	// CommRounds is the number of rounds that carried traffic.
	CommRounds int `json:"comm_rounds"`
	// Messages and Bytes are the protocol-phase traffic totals (key
	// distribution, where a protocol needs it, is not counted — the
	// paper amortizes it across runs).
	Messages int `json:"messages"`
	Bytes    int `json:"bytes"`
	// SignedMessages counts the messages whose kind carries signatures.
	SignedMessages int `json:"signed_messages"`
	// Conformance is the instance's verdict against the paper's
	// correctness predicates (see conformance.go); nil for errored
	// instances.
	Conformance *Verdict `json:"conformance,omitempty"`
}

// signedKinds are the message kinds that carry signature material.
var signedKinds = []model.MessageKind{
	model.KindChainValue,
	model.KindChallengeResponse,
	model.KindSigned,
	model.KindFault,
	model.KindFaultEcho,
	model.KindFallback,
}

// countSigned sums the signature-bearing kinds in a snapshot.
func countSigned(s metrics.Snapshot) int {
	total := 0
	for _, k := range signedKinds {
		total += s.ByKind[k]
	}
	return total
}

// RunInstance executes one instance in full isolation: key material,
// RNG streams, every process, and the metrics sink all derive from the
// instance alone, so any number of RunInstance calls may execute
// concurrently. Errors are reported in Result.Err rather than aborting —
// one misconfigured combination must not kill a thousand-instance sweep.
//
// RunInstance always performs fresh setup (keygen + handshake); see
// RunInstanceWith for the amortized form.
func RunInstance(inst Instance) Result { return RunInstanceWith(inst, nil) }

// RunInstanceWith executes one instance like RunInstance but, when cache
// is non-nil and the driver declares cacheable setup, over the store's
// established material — the sweep's store in Run's worker loop, a
// pooled one in the agreement service. Both paths derive identical wire
// bytes, because key material is a pure function of (Scheme, N, KeySeed)
// either way — the cached-vs-fresh differential test pins it — and any
// number of goroutines may share one store. There is no per-protocol
// branching: every protocol the registry knows, drivers registered
// outside this repository included, runs, aggregates and is
// conformance-scored identically.
func RunInstanceWith(inst Instance, cache *protocol.SetupCache) Result {
	return runInstance(inst, cache, nil)
}

// runInstance is RunInstanceWith for a tracer: served, when non-nil, is
// handed to the driver as protocol.Instance.SetupServed.
func runInstance(inst Instance, cache *protocol.SetupCache, served *string) Result {
	res := Result{Index: inst.Index, Group: inst.GroupKey(), Seed: inst.Seed}
	if err := runInto(inst, cache, served, &res); err != nil {
		res.Err = err.Error()
		res.Conformance = nil
	}
	return res
}

// resolve returns the instance's driver and its protocol-level form:
// adversary and network condition parsed, seeds and value carried over.
func (inst Instance) resolve() (protocol.Driver, protocol.Instance, error) {
	drv, err := protocol.Lookup(inst.Protocol)
	if err != nil {
		return nil, protocol.Instance{}, err
	}
	strat, err := inst.strategy()
	if err != nil {
		return nil, protocol.Instance{}, err
	}
	net, err := inst.netcondSpec()
	if err != nil {
		return nil, protocol.Instance{}, err
	}
	return drv, protocol.Instance{
		N:        inst.N,
		T:        inst.T,
		Scheme:   inst.Scheme,
		Value:    inst.Value,
		Strategy: strat,
		Net:      net,
		Seed:     inst.Seed,
		KeySeed:  inst.KeySeed,
	}, nil
}

// runInto executes the instance and fills the result's measurement and
// conformance fields.
func runInto(inst Instance, cache *protocol.SetupCache, served *string, res *Result) error {
	drv, pinst, err := inst.resolve()
	if err != nil {
		return err
	}
	pinst.SetupServed = served
	out, err := protocol.RunInstance(drv, pinst, cache)
	if err != nil {
		return err
	}
	res.Rounds = out.Rounds
	res.CommRounds = out.Snapshot.CommunicationRounds
	res.Messages = out.Snapshot.Messages
	res.Bytes = out.Snapshot.Bytes
	res.SignedMessages = countSigned(out.Snapshot)
	res.Agreed = out.Agreed
	res.Discovered = out.Discovered
	res.Conformance = scoreOutcome(drv, pinst, out)
	return nil
}

// strategy resolves the instance's adversary: the structured Strategy
// when present (expansion always names it), otherwise the Adversary
// string — a legacy alias or compact strategy syntax — so hand-built
// instances keep working.
func (inst Instance) strategy() (adversary.Strategy, error) {
	if !inst.Strategy.IsHonest() || inst.Strategy.Name != "" {
		return inst.Strategy, nil
	}
	if inst.Adversary == "" {
		return adversary.Strategy{Name: AdvNone}, nil
	}
	return ParseAdversary(inst.Adversary)
}

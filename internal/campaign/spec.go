// Package campaign is the declarative scenario-sweep engine: a Spec
// names a family of protocol runs — a grid over protocol, system size,
// fault bound, signature scheme, adversary mix, and seed range — and the
// engine expands it into a deterministic list of fully independent
// simulation instances, executes them on a sharded worker pool, and
// aggregates the outcomes into distributions (internal/metrics).
//
// The paper's evaluation is about *families* of runs: failure-discovery
// and agreement costs as n, t, the authentication scheme, and the
// adversary vary. Most of package experiments' tables are campaign specs
// plus a column formula; campaign is the scaffolding that sweeps them
// systematically and as fast as the hardware allows.
//
// Determinism contract: a campaign's aggregate output is a pure function
// of its Spec. Expansion order is fixed, every instance derives its own
// RNG, key material, and metrics sink from (Spec.SeedBase, instance
// coordinates) alone, and results are aggregated in instance order — so
// the report is byte-identical whether one worker ran the sweep or
// sixteen did.
//
// Kept though no benchmark row, golden or CI smoke reaches them:
//   - WithInstanceTimeout, Executor.runWatched: fdcampaign's -inst-timeout watchdog, off by default; TestWatchdogContainsDriverPanic fires it.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/adversary"
	"repro/internal/netcond"
	"repro/internal/protocol"
	"repro/internal/sig"
)

// Protocol names accepted in Spec.Protocols. The vocabulary is the
// protocol driver registry (internal/protocol): any registered driver —
// including ones registered outside this repository — sweeps through the
// campaign engine with no campaign changes. The constants below alias
// the built-in drivers for spec-building convenience.
const (
	// ProtoChain is the authenticated chain failure-discovery protocol
	// (paper Fig. 2, n−1 messages).
	ProtoChain = protocol.NameChain
	// ProtoNonAuth is the non-authenticated baseline ((t+1)(n−1) messages).
	ProtoNonAuth = protocol.NameNonAuth
	// ProtoSmallRange is the binary silence-as-default FD variant (§5).
	ProtoSmallRange = protocol.NameSmallRange
	// ProtoVector is the beyond-paper vector FD composition (n rotated
	// chain instances sharing rounds).
	ProtoVector = protocol.NameVector
	// ProtoEIG is the classical OM(t) Byzantine-agreement baseline.
	ProtoEIG = protocol.NameEIG
	// ProtoFDBA is the failure-discovery-to-Byzantine-agreement extension
	// (paper §4): chain FD plus a signed fallback flood on discovery.
	ProtoFDBA = protocol.NameFDBA
	// ProtoSM is the signed-messages agreement algorithm SM(t).
	ProtoSM = protocol.NameSM
)

// Legacy adversary alias names accepted in Spec.Adversaries, kept from
// the era when these four were the whole vocabulary. Each resolves to a
// composable adversary.Strategy (see aliasStrategy); arbitrary strategies
// are declared with the compact syntax or the AdversarySpecs block. Their
// behaviors apply to the protocol phase; key distribution, where a
// protocol needs it, runs honestly unless the strategy names a setup=
// attack (local authentication: a faulty node may show peers any keys).
const (
	// AdvNone runs every node honestly.
	AdvNone = "none"
	// AdvCrashSender replaces the sender P_0 with a silent node.
	AdvCrashSender = "crash-sender"
	// AdvCrashRelay replaces the first relay P_1 with a silent node.
	AdvCrashRelay = "crash-relay"
	// AdvEquivocate makes the sender two-faced: one value to the first
	// half of the nodes, another to the rest. Supported for chain, fdba,
	// nonauth, sm and eig (smallrange carries one bit and vector has no
	// distinguished sender, so the mix is skipped there).
	AdvEquivocate = "equivocate"
)

// Case is one explicit (n, t) configuration.
type Case struct {
	N int `json:"n"`
	T int `json:"t"`
}

// Spec declares a scenario sweep. The expanded grid is the cross product
// Protocols × cases × Schemes × Adversaries × NetConds × seeds, where cases is
// either the explicit Cases list or Sizes × Tols (with Tols empty
// meaning the classical t = ⌊(n−1)/3⌋ per size). Combinations a protocol
// cannot express (eig needs n > 3t, equivocate needs a distinguished
// multi-valued sender, ...) are skipped during expansion — deterministically,
// so every run of the same Spec sees the same instance list.
type Spec struct {
	// Name labels the campaign in reports.
	Name string `json:"name"`
	// Protocols to sweep; see the Proto* constants.
	Protocols []string `json:"protocols"`
	// Sizes are system sizes n (ignored when Cases is set).
	Sizes []int `json:"sizes,omitempty"`
	// Tols are fault bounds t crossed with Sizes; empty means the
	// classical t = ⌊(n−1)/3⌋ for each size (ignored when Cases is set).
	Tols []int `json:"tols,omitempty"`
	// Cases gives explicit (n, t) pairs, overriding Sizes × Tols.
	Cases []Case `json:"cases,omitempty"`
	// Schemes are signature-scheme registry names; empty means ed25519.
	// Protocols that use no signatures (nonauth, eig) run once under the
	// first scheme rather than once per scheme.
	Schemes []string `json:"schemes,omitempty"`
	// Adversaries are fault mixes as strings: legacy alias names (the
	// Adv* constants) or the compact strategy syntax
	// ("coalition:size=2,behavior=equivocate,partition=even-odd", see
	// adversary.ParseStrategy). Empty means none unless AdversarySpecs is
	// set.
	Adversaries []string `json:"adversaries,omitempty"`
	// AdversarySpecs declares composable adversary strategies in
	// structured form; they sweep after the Adversaries entries.
	AdversarySpecs []adversary.Strategy `json:"adversary_specs,omitempty"`
	// NetConds are network conditions in the compact syntax
	// ("latency=uniform-0-2,loss=0.05,partition=even-odd@1-3", see
	// netcond.Parse; "ideal" is the no-op network). Empty means every
	// instance runs on the ideal network unless NetCondSpecs is set.
	NetConds []string `json:"netconds,omitempty"`
	// NetCondSpecs declares network conditions in structured form; they
	// sweep after the NetConds entries.
	NetCondSpecs []netcond.Spec `json:"netcond_specs,omitempty"`
	// SeedBase is the base of the deterministic seed range.
	SeedBase int64 `json:"seed_base"`
	// SeedCount is how many seeded repetitions each configuration runs.
	SeedCount int `json:"seed_count"`
}

// withDefaults returns the spec with empty optional fields resolved.
func (s Spec) withDefaults() Spec {
	if len(s.Schemes) == 0 {
		s.Schemes = []string{sig.SchemeEd25519}
	}
	if len(s.Adversaries) == 0 && len(s.AdversarySpecs) == 0 {
		s.Adversaries = []string{AdvNone}
	}
	if s.SeedCount == 0 {
		s.SeedCount = 1
	}
	return s
}

// Validate checks the spec's vocabulary and shape. It validates the
// sweep axes only; per-combination constraints (t < n, n > 3t for eig,
// ...) are handled by skipping during expansion.
func (s Spec) Validate() error {
	if len(s.Protocols) == 0 {
		return fmt.Errorf("campaign: spec needs at least one protocol")
	}
	for _, p := range s.Protocols {
		if _, err := protocol.Lookup(p); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	if len(s.Cases) == 0 && len(s.Sizes) == 0 {
		return fmt.Errorf("campaign: spec needs sizes or explicit cases")
	}
	for _, c := range s.Cases {
		if c.N < 2 {
			return fmt.Errorf("campaign: case n=%d is below the 2-node minimum", c.N)
		}
	}
	for _, n := range s.Sizes {
		if n < 2 {
			return fmt.Errorf("campaign: size n=%d is below the 2-node minimum", n)
		}
	}
	if _, err := s.resolveAdversaries(); err != nil {
		return err
	}
	if _, err := s.resolveNetConds(); err != nil {
		return err
	}
	for _, name := range s.Schemes {
		if _, err := sig.ByName(name); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	if s.SeedCount < 0 {
		return fmt.Errorf("campaign: seed count must be non-negative, got %d", s.SeedCount)
	}
	return nil
}

// LoadSpec reads a Spec from a JSON file. Unknown fields are rejected so
// a typo in a spec fails loudly instead of silently shrinking the sweep.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: read spec: %w", err)
	}
	return ParseSpec(data)
}

// ParseSpec decodes a JSON Spec document.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

package campaign

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/netcond"
	"repro/internal/protocol"
)

// Instance is one fully specified, independently runnable simulation:
// a protocol at one (n, t) under one scheme, one adversary mix, and one
// seed. Instances are self-contained — RunInstance derives all key
// material, RNG streams, and metric sinks from the fields here, sharing
// nothing with any other instance.
type Instance struct {
	// Index is the instance's position in the expansion order; the
	// runner stores results by Index so aggregation order never depends
	// on worker scheduling.
	Index int `json:"index"`
	// Protocol is a registered driver name (see internal/protocol; the
	// Proto* constants alias the built-ins).
	Protocol string `json:"protocol"`
	// N and T are the system size and fault bound.
	N int `json:"n"`
	T int `json:"t"`
	// Scheme is the signature-scheme registry name ("" for protocols
	// that use no signatures).
	Scheme string `json:"scheme,omitempty"`
	// Adversary names the fault mix; it doubles as the group-key field.
	// Expansion sets it to the resolved strategy's name.
	Adversary string `json:"adversary"`
	// Strategy is the resolved composable adversary. Hand-built instances
	// may leave it zero and set Adversary to an alias name or compact
	// strategy syntax instead; runInstance resolves either form.
	Strategy adversary.Strategy `json:"strategy"`
	// NetCond names the network condition; empty means the ideal network
	// (so pre-netcond instances and group keys are unchanged). Expansion
	// sets it to the resolved spec's name.
	NetCond string `json:"netcond,omitempty"`
	// Net is the resolved network condition (nil for ideal). Hand-built
	// instances may leave it nil and set NetCond to the compact syntax
	// instead; runInstance resolves either form.
	Net *netcond.Spec `json:"net,omitempty"`
	// Seed drives every per-run random choice inside the instance
	// (handshake nonces).
	Seed int64 `json:"seed"`
	// KeySeed pins the instance's key material independently of Seed: all
	// keys derive from (Scheme, N, KeySeed) alone, through the key-domain
	// streams of sim.KeyMaterialSeed. Expansion sets it to the spec's
	// SeedBase for every instance, so a seed sweep over one configuration
	// shares key material — the paper's pay-for-authentication-once
	// economics — and the setup store can reuse one handshake's nodes for
	// the whole sweep without changing a single report byte.
	KeySeed int64 `json:"key_seed"`
	// Value, when non-empty, overrides the protocol's canonical sender
	// proposal. Expansion never sets it — sweeps measure the canonical
	// workload — but the agreement service (internal/service) threads
	// caller-supplied values through here, and an empty Value keeps every
	// report byte-identical to the pre-field era.
	Value []byte `json:"value,omitempty"`
}

// GroupKey identifies the instance's aggregation group: everything but
// the seed. Instances differing only in Seed are repetitions of the same
// configuration and aggregate together.
func (i Instance) GroupKey() string {
	scheme := i.Scheme
	if scheme == "" {
		scheme = "-"
	}
	key := fmt.Sprintf("%s/n=%d/t=%d/%s/%s", i.Protocol, i.N, i.T, scheme, i.Adversary)
	if i.NetCond != "" {
		// The netcond segment joins the key only when a condition is set,
		// so ideal-network group keys are byte-identical to the pre-axis era.
		key += "/" + i.NetCond
	}
	return key
}

// sameGroup reports whether two instances share a GroupKey, without
// formatting either.
func (i Instance) sameGroup(o Instance) bool {
	return i.Protocol == o.Protocol && i.N == o.N && i.T == o.T &&
		i.Scheme == o.Scheme && i.Adversary == o.Adversary && i.NetCond == o.NetCond
}

// capabilities resolves a protocol name's declared capabilities through
// the driver registry (the zero value for unknown names; Validate has
// already rejected those before expansion runs).
func capabilities(name string) protocol.Capabilities {
	drv, err := protocol.Lookup(name)
	if err != nil {
		return protocol.Capabilities{}
	}
	return drv.Capabilities()
}

// classicTol is the classical fault bound t = ⌊(n−1)/3⌋, floored at 1 so
// small systems still exercise a non-trivial bound.
func classicTol(n int) int {
	t := (n - 1) / 3
	if t < 1 {
		t = 1
	}
	if t >= n {
		t = n - 1
	}
	return t
}

// cases resolves the spec's (n, t) list: explicit Cases verbatim, else
// Sizes × Tols, else Sizes with the classical bound.
func (s Spec) cases() []Case {
	if len(s.Cases) > 0 {
		return s.Cases
	}
	var out []Case
	for _, n := range s.Sizes {
		if len(s.Tols) == 0 {
			out = append(out, Case{N: n, T: classicTol(n)})
			continue
		}
		for _, t := range s.Tols {
			out = append(out, Case{N: n, T: t})
		}
	}
	return out
}

// Expand resolves the spec into its deterministic instance list. The
// order is the nested iteration protocol → case → scheme → adversary →
// netcond → seed; unsupported combinations are skipped. Seeds are SeedBase,
// SeedBase+1, … per configuration, so two configurations share seed
// values but never RNG streams (every instance mixes its seed with its
// node IDs through sim.NodeSeed).
func Expand(spec Spec) ([]Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	strategies, err := spec.resolveAdversaries()
	if err != nil {
		return nil, err
	}
	netconds, err := spec.resolveNetConds()
	if err != nil {
		return nil, err
	}
	var out []Instance
	for _, name := range spec.Protocols {
		// One registry lookup per protocol; the skip rules live with the
		// drivers (Capabilities.Supports), so expansion stays a pure
		// function of the Spec and the registry with no per-protocol
		// branches here.
		caps := capabilities(name)
		schemes := spec.Schemes
		if !caps.UsesSignatures {
			schemes = []string{""}
		}
		for _, c := range spec.cases() {
			for _, scheme := range schemes {
				for _, strat := range strategies {
					if !caps.Supports(c.N, c.T, strat) {
						continue
					}
					for _, nc := range netconds {
						if !caps.SupportsNet(c.N, c.T, strat, nc.spec) {
							continue
						}
						for s := 0; s < spec.SeedCount; s++ {
							out = append(out, Instance{
								Index:     len(out),
								Protocol:  name,
								N:         c.N,
								T:         c.T,
								Scheme:    scheme,
								Adversary: strat.Name,
								Strategy:  strat,
								NetCond:   nc.name,
								Net:       nc.spec,
								Seed:      spec.SeedBase + int64(s),
								KeySeed:   spec.SeedBase,
							})
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: spec %q expands to zero instances", spec.Name)
	}
	return out, nil
}

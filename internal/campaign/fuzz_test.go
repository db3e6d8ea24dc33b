package campaign

import (
	"encoding/json"
	"testing"

	"repro/internal/adversary"
)

// FuzzParseAdversary covers the campaign-level resolution of one
// Adversaries entry: legacy aliases and the compact strategy syntax.
// Malformed input must error, never panic; accepted strategies must be
// expandable.
func FuzzParseAdversary(f *testing.F) {
	for _, seed := range []string{
		AdvNone, AdvCrashSender, AdvCrashRelay, AdvEquivocate,
		"coalition:size=2,behavior=equivocate,partition=even-odd",
		"relay:behavior=delay,delay=2",
		"nodes=1+2:behavior=drop,victims=0",
		"relay:behavior=resign", "nodes=0+2:behavior=resign", "relay:behavior=wrong-name",
		"coalition:size=2,behavior=resign", "relay:behavior=wrong-name,victims=3",
		"sender:setup=equivocate-keys", "relay:setup=relay-challenge,name=r", "nodes=1+2:setup=shared-key",
		"coalition:setup=silent", "sender:setup=keys",
		"gremlin", "none:extra", "coalition:size=99999999999999999999,behavior=crash",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		strat, err := ParseAdversary(input)
		if err != nil {
			return
		}
		// Accepted adversaries must expand cleanly in a spec.
		spec := Spec{
			Protocols:   []string{ProtoChain},
			Cases:       []Case{{N: 6, T: 2}},
			Adversaries: []string{input},
			SeedCount:   1,
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseAdversary accepted %q but Spec.Validate rejects it: %v", input, err)
		}
		_ = strat.CanonicalName()
	})
}

// FuzzParseNetCond covers the network-condition axis entry point used
// by -netcond: malformed compact syntax (truncated fields, overlong
// names, NaN probabilities) must error, never panic, and any accepted
// condition must survive spec validation and expansion.
func FuzzParseNetCond(f *testing.F) {
	for _, seed := range []string{
		"", "ideal", NetCondIdeal,
		"latency=fixed-1", "latency=uniform-0-2", "latency=lognormal-0.5-0.3-6",
		"loss=0.05,reorder=0.1,bandwidth=4",
		"partition=even-odd@1-3", "partition=halves@2",
		"churn=2@2-4,churn=0@1",
		"name=lab,loss=0.2",
		"latency=fixed-",        // truncated
		"latency=uniform-0-",    // truncated
		"partition=even-odd@",   // truncated
		"churn=2@",              // truncated
		"loss=NaN", "loss=+Inf", // non-finite probabilities
		"loss=1e309",                        // overflow
		"bandwidth=99999999999999999",       // overlong number
		"name=" + string(make([]byte, 200)), // overlong name
		"latency=fixed-1,latency=fixed-2",   // duplicate key
		"gremlin=1", "=", ",,,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseNetCond(input)
		if err != nil {
			return
		}
		if spec.CanonicalName() == "" {
			t.Fatalf("ParseNetCond(%q) accepted with empty canonical name", input)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseNetCond accepted %q but Validate rejects it: %v", input, err)
		}
		// Accepted conditions must be usable as a campaign axis entry.
		cs := Spec{
			Protocols: []string{ProtoChain},
			Cases:     []Case{{N: 4, T: 1}},
			NetConds:  []string{input},
			SeedCount: 1,
		}
		if err := cs.Validate(); err != nil {
			t.Fatalf("ParseNetCond accepted %q but Spec.Validate rejects it: %v", input, err)
		}
		// Expansion must not panic; a zero-instance result (every case
		// skipped, e.g. churn wider than the fault budget) is a clean error.
		_, _ = Expand(cs)
	})
}

// FuzzAdversarySpecJSON covers the structured AdversarySpecs path: any
// JSON that unmarshals into a strategy must either fail validation with
// an error or expand without panicking.
func FuzzAdversarySpecJSON(f *testing.F) {
	for _, seed := range []string{
		`{"coalition":2,"behaviors":[{"behavior":"equivocate","partition":"even-odd"}]}`,
		`{"nodes":[1],"behaviors":[{"behavior":"delay","delay":2}]}`,
		`{"nodes":[0],"behaviors":[{"behavior":"crash","round":-1}]}`,
		`{"coalition":-5}`,
		`{"behaviors":[{"behavior":"warp"}]}`,
		`{}`,
		`{"nodes":[1,1],"behaviors":[{"behavior":"crash"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var strat adversary.Strategy
		if err := json.Unmarshal(data, &strat); err != nil {
			return
		}
		spec := Spec{
			Protocols:      []string{ProtoChain},
			Cases:          []Case{{N: 6, T: 2}},
			AdversarySpecs: []adversary.Strategy{strat},
			SeedCount:      1,
		}
		if err := spec.Validate(); err != nil {
			return // invalid strategies must be caught here, not panic later
		}
		if _, err := Expand(spec); err != nil {
			// A valid spec may still expand to zero instances (skip
			// rules); that surfaces as an error, which is fine.
			return
		}
	})
}

package adversary

// The composable strategy layer: a declarative description of WHO is
// corrupt (a fixed node set or a seed-driven coalition of size f ≤ t) and
// WHAT the corrupt nodes do (an ordered stack of behaviors), compiled
// into Behavior stacks for the simulator. The campaign engine sweeps
// Strategy values the way it sweeps protocols and schemes — the paper's
// theorems are claims over *families* of fault mixes, and four hard-coded
// adversary names cannot express a family.
//
// Strategies are pure data: JSON-marshalable, comparable field by field,
// and resolvable to a corrupt set by (n, seed) alone, which is what keeps
// campaign expansion and reports deterministic.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/sim"
)

// Behavior names accepted in BehaviorSpec.Name.
const (
	// BehaviorCrash silences the node from Round on (default round 1).
	BehaviorCrash = "crash"
	// BehaviorDrop suppresses messages to the Victims set.
	BehaviorDrop = "drop"
	// BehaviorDelay releases every outgoing message Delay rounds late.
	BehaviorDelay = "delay"
	// BehaviorDuplicate floods each Victims member with a copy of every
	// outgoing message.
	BehaviorDuplicate = "duplicate"
	// BehaviorTamper flips a payload bit of every outgoing message.
	BehaviorTamper = "tamper"
	// BehaviorEquivocate shows different faces to the two sides of
	// Partition: protocol wirings substitute a bespoke two-faced sender
	// where one exists (chain, nonauth); everywhere else the generic
	// payload-rewriting TwoFaced filter applies.
	BehaviorEquivocate = "equivocate"
)

// Partition names accepted in BehaviorSpec.Partition.
const (
	// PartitionHalves shows face one to nodes below n/2 (the default).
	PartitionHalves = "halves"
	// PartitionEvenOdd shows face one to even node IDs.
	PartitionEvenOdd = "even-odd"
)

// Parameter bounds. Validation rejects values outside them so a typo'd
// spec fails loudly instead of producing a sweep that silently does
// nothing (a crash round past every protocol's deadline) or buffers
// unboundedly (an absurd delay).
const (
	// MaxBehaviorRound bounds crash rounds.
	MaxBehaviorRound = 1 << 16
	// MaxDelayRounds bounds the delay behavior.
	MaxDelayRounds = 1 << 8
)

// BehaviorSpec declares one behavior of a corrupt node. Exactly the
// fields its Name uses may be set; Validate rejects stray parameters so
// specs stay unambiguous.
type BehaviorSpec struct {
	// Name is one of the Behavior* constants.
	Name string `json:"behavior"`
	// Round parameterizes crash: silent from this round on (0 means 1).
	Round int `json:"round,omitempty"`
	// Delay is the delay bound in rounds (delay only, ≥ 1).
	Delay int `json:"delay,omitempty"`
	// Victims are drop's suppressed recipients or duplicate's flood
	// targets.
	Victims []int `json:"victims,omitempty"`
	// Partition selects equivocate's two-faced split (default halves).
	Partition string `json:"partition,omitempty"`
}

// Strategy declares a composable adversary: the corrupt-set selection
// plus the behavior stack every corrupt node runs. The zero Strategy is
// the honest (no-fault) strategy.
type Strategy struct {
	// Name labels the strategy in reports and group keys; empty means the
	// canonical rendering of the fields (CanonicalName).
	Name string `json:"name,omitempty"`
	// Nodes fixes the corrupt set explicitly. Mutually exclusive with
	// Coalition.
	Nodes []int `json:"nodes,omitempty"`
	// Coalition, when > 0, selects a seed-driven corrupt coalition of this
	// size instead of fixed Nodes: each run seed draws its own coalition,
	// so a seed sweep explores fault placements instead of repeating one.
	Coalition int `json:"coalition,omitempty"`
	// Behaviors stack onto every corrupt node, applied in order.
	Behaviors []BehaviorSpec `json:"behaviors,omitempty"`
}

// IsHonest reports the no-fault strategy.
func (s Strategy) IsHonest() bool { return s.Coalition == 0 && len(s.Nodes) == 0 }

// CorruptSize returns how many nodes the strategy corrupts.
func (s Strategy) CorruptSize() int {
	if s.Coalition > 0 {
		return s.Coalition
	}
	return len(s.Nodes)
}

// HasBehavior reports whether the stack contains the named behavior.
func (s Strategy) HasBehavior(name string) bool {
	for _, b := range s.Behaviors {
		if b.Name == name {
			return true
		}
	}
	return false
}

// CorruptsNonSender reports whether the strategy can corrupt a node other
// than the distinguished sender P_0: true for every coalition (membership
// is seed-driven) and for fixed sets naming a non-zero node.
func (s Strategy) CorruptsNonSender() bool {
	if s.Coalition > 0 {
		return true
	}
	for _, id := range s.Nodes {
		if id != 0 {
			return true
		}
	}
	return false
}

// MaxFixedNode returns the largest fixed corrupt node ID (-1 when the
// strategy has none).
func (s Strategy) MaxFixedNode() int {
	maxID := -1
	for _, id := range s.Nodes {
		if id > maxID {
			maxID = id
		}
	}
	return maxID
}

// Validate checks the strategy's internal consistency. It does not check
// fit against a particular (n, t) — that is the sweep layer's skip rule,
// which needs the configuration.
func (s Strategy) Validate() error {
	if s.Coalition < 0 {
		return fmt.Errorf("adversary: coalition size %d is negative", s.Coalition)
	}
	if s.Coalition > 0 && len(s.Nodes) > 0 {
		return fmt.Errorf("adversary: fixed nodes and coalition are mutually exclusive")
	}
	seen := make(map[int]bool, len(s.Nodes))
	for _, id := range s.Nodes {
		if id < 0 {
			return fmt.Errorf("adversary: corrupt node id %d is negative", id)
		}
		if seen[id] {
			return fmt.Errorf("adversary: corrupt node id %d repeated", id)
		}
		seen[id] = true
	}
	if s.IsHonest() {
		if len(s.Behaviors) > 0 {
			return fmt.Errorf("adversary: behaviors declared without a corrupt set")
		}
		return nil
	}
	if len(s.Behaviors) == 0 {
		return fmt.Errorf("adversary: corrupt set declared without behaviors")
	}
	for i, b := range s.Behaviors {
		if err := b.validate(); err != nil {
			return fmt.Errorf("adversary: behavior %d: %w", i, err)
		}
	}
	return nil
}

// behaviorParams maps each behavior name to the parameters it accepts.
// Validation checks the four parameter fields against this table, so a
// stray parameter ("delay=2" on a crash) fails instead of silently
// meaning nothing, and a new behavior cannot forget a stray check.
var behaviorParams = map[string]struct{ round, delay, victims, partition bool }{
	BehaviorCrash:      {round: true},
	BehaviorDelay:      {delay: true},
	BehaviorDrop:       {victims: true},
	BehaviorDuplicate:  {victims: true},
	BehaviorTamper:     {},
	BehaviorEquivocate: {partition: true},
}

// validate checks one behavior's name and that exactly its parameters
// are set, within bounds.
func (b BehaviorSpec) validate() error {
	if b.Name == "" {
		return fmt.Errorf("behavior name missing")
	}
	allowed, ok := behaviorParams[b.Name]
	if !ok {
		return fmt.Errorf("unknown behavior %q", b.Name)
	}
	if !allowed.round && b.Round != 0 {
		return fmt.Errorf("%s does not take round", b.Name)
	}
	if !allowed.delay && b.Delay != 0 {
		return fmt.Errorf("%s does not take delay", b.Name)
	}
	if !allowed.victims && len(b.Victims) != 0 {
		return fmt.Errorf("%s does not take victims", b.Name)
	}
	if !allowed.partition && b.Partition != "" {
		return fmt.Errorf("%s does not take partition", b.Name)
	}
	if b.Round < 0 || b.Round > MaxBehaviorRound {
		return fmt.Errorf("round %d out of range [0, %d]", b.Round, MaxBehaviorRound)
	}
	if b.Delay < 0 || b.Delay > MaxDelayRounds {
		return fmt.Errorf("delay %d out of range [0, %d]", b.Delay, MaxDelayRounds)
	}
	for _, v := range b.Victims {
		if v < 0 {
			return fmt.Errorf("victim id %d is negative", v)
		}
	}
	// Required and enumerated parameters.
	switch b.Name {
	case BehaviorDelay:
		if b.Delay < 1 {
			return fmt.Errorf("delay needs delay ≥ 1")
		}
	case BehaviorDrop, BehaviorDuplicate:
		if len(b.Victims) == 0 {
			return fmt.Errorf("%s needs at least one victim", b.Name)
		}
	case BehaviorEquivocate:
		switch b.Partition {
		case "", PartitionHalves, PartitionEvenOdd:
		default:
			return fmt.Errorf("unknown partition %q", b.Partition)
		}
	}
	return nil
}

// CorruptSet resolves the corrupt set for a system of n nodes under the
// given run seed. Fixed Nodes return verbatim; a Coalition draws its
// members without replacement from the seed's coalition-domain stream
// (sim.CoalitionSeed), so repetitions of one configuration under
// different seeds sweep different fault placements while every single
// instance stays exactly reproducible.
func (s Strategy) CorruptSet(n int, seed int64) model.NodeSet {
	set := model.NewNodeSet()
	if s.Coalition > 0 {
		size := s.Coalition
		if size > n {
			size = n
		}
		rng := rand.New(sim.SeededSource(sim.CoalitionSeed(seed)))
		for _, v := range rng.Perm(n)[:size] {
			set.Add(model.NodeID(v))
		}
		return set
	}
	for _, id := range s.Nodes {
		set.Add(model.NodeID(id))
	}
	return set
}

// PartitionFaceOne returns the recipients shown face one under the named
// partition in a system of n nodes; everyone else is shown face two. The
// two faces are disjoint by construction and cover all n nodes.
func PartitionFaceOne(partition string, n int) (model.NodeSet, error) {
	set := model.NewNodeSet()
	switch partition {
	case "", PartitionHalves:
		for id := 0; id < n/2; id++ {
			set.Add(model.NodeID(id))
		}
	case PartitionEvenOdd:
		for id := 0; id < n; id += 2 {
			set.Add(model.NodeID(id))
		}
	default:
		return nil, fmt.Errorf("adversary: unknown partition %q", partition)
	}
	return set, nil
}

// BuildBehaviors compiles a behavior-spec stack into runtime Behaviors
// for one corrupt node in a system of n nodes. Equivocate compiles to the
// generic TwoFaced payload rewrite; wirings with a bespoke equivocating
// process for the node substitute it upstream and pass the remaining
// specs here.
func BuildBehaviors(specs []BehaviorSpec, n int) ([]Behavior, error) {
	var out []Behavior
	for _, spec := range specs {
		if err := spec.validate(); err != nil {
			return nil, fmt.Errorf("adversary: %w", err)
		}
		switch spec.Name {
		case BehaviorCrash:
			from := spec.Round
			if from < 1 {
				from = 1
			}
			out = append(out, DropAll(from))
		case BehaviorDrop:
			victims := model.NewNodeSet()
			for _, v := range spec.Victims {
				victims.Add(model.NodeID(v))
			}
			out = append(out, DropTo(victims))
		case BehaviorDelay:
			out = append(out, DelayBy(spec.Delay))
		case BehaviorDuplicate:
			victims := make([]model.NodeID, len(spec.Victims))
			for i, v := range spec.Victims {
				victims[i] = model.NodeID(v)
			}
			out = append(out, FloodTo(victims))
		case BehaviorTamper:
			out = append(out, TamperAll(FlipByte(0)))
		case BehaviorEquivocate:
			faceOne, err := PartitionFaceOne(spec.Partition, n)
			if err != nil {
				return nil, err
			}
			out = append(out, TwoFaced(faceOne, FlipByte(0)))
		}
	}
	return out, nil
}

// CanonicalName renders the strategy as a deterministic, comma-free label
// for group keys and tables: the explicit Name when set, otherwise
// selector and behavior tokens joined by dots, e.g.
// "coalition-2.equivocate-even-odd" or "nodes-1.delay-2.drop-v3".
func (s Strategy) CanonicalName() string {
	if s.Name != "" {
		return s.Name
	}
	if s.IsHonest() {
		return "none"
	}
	var parts []string
	if s.Coalition > 0 {
		parts = append(parts, fmt.Sprintf("coalition-%d", s.Coalition))
	} else {
		ids := append([]int(nil), s.Nodes...)
		sort.Ints(ids)
		sel := "nodes"
		for _, id := range ids {
			sel += fmt.Sprintf("-%d", id)
		}
		parts = append(parts, sel)
	}
	for _, b := range s.Behaviors {
		parts = append(parts, b.token())
	}
	return strings.Join(parts, ".")
}

// token renders one behavior for CanonicalName.
func (b BehaviorSpec) token() string {
	switch b.Name {
	case BehaviorCrash:
		if b.Round > 1 {
			return fmt.Sprintf("crash-r%d", b.Round)
		}
		return "crash"
	case BehaviorDelay:
		return fmt.Sprintf("delay-%d", b.Delay)
	case BehaviorDrop, BehaviorDuplicate:
		tok := b.Name
		ids := append([]int(nil), b.Victims...)
		sort.Ints(ids)
		for _, v := range ids {
			tok += fmt.Sprintf("-v%d", v)
		}
		return tok
	case BehaviorEquivocate:
		if b.Partition != "" && b.Partition != PartitionHalves {
			return "equivocate-" + b.Partition
		}
		return "equivocate"
	default:
		return b.Name
	}
}

// ParseStrategy parses the compact flag syntax:
//
//	selector[:param,param,...]
//
// Selectors: "sender" (corrupt {P_0}), "relay" ({P_1}),
// "nodes=<i>+<j>+..." (explicit set), "coalition" (seed-driven, size via
// size=<f>). Parameters: "behavior=<name>" opens a behavior (several
// compose in order); "round=", "delay=", "victims=<i>+<j>", "partition="
// attach to the behavior opened last; "size=<f>" sets the coalition size;
// "name=<label>" overrides the canonical name. Example:
//
//	coalition:size=2,behavior=equivocate,partition=even-odd
//
// The result is validated; malformed input returns an error, never a
// panic.
func ParseStrategy(input string) (Strategy, error) {
	var s Strategy
	selector, params, hasParams := strings.Cut(input, ":")
	switch {
	case selector == "sender":
		s.Nodes = []int{0}
	case selector == "relay":
		s.Nodes = []int{1}
	case selector == "coalition":
		// size arrives via size=; default 1.
		s.Coalition = 1
	case strings.HasPrefix(selector, "nodes="):
		ids, err := parseIntList(strings.TrimPrefix(selector, "nodes="))
		if err != nil {
			return Strategy{}, fmt.Errorf("adversary: parse %q: %w", input, err)
		}
		s.Nodes = ids
	default:
		return Strategy{}, fmt.Errorf("adversary: parse %q: unknown selector %q", input, selector)
	}
	if hasParams {
		var cur *BehaviorSpec
		for _, param := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(param, "=")
			if !ok || val == "" {
				return Strategy{}, fmt.Errorf("adversary: parse %q: malformed parameter %q", input, param)
			}
			switch key {
			case "name":
				s.Name = val
			case "size":
				if s.Coalition == 0 {
					return Strategy{}, fmt.Errorf("adversary: parse %q: size= outside a coalition selector", input)
				}
				size, err := strconv.Atoi(val)
				if err != nil || size < 1 {
					return Strategy{}, fmt.Errorf("adversary: parse %q: bad coalition size %q", input, val)
				}
				s.Coalition = size
			case "behavior":
				s.Behaviors = append(s.Behaviors, BehaviorSpec{Name: val})
				cur = &s.Behaviors[len(s.Behaviors)-1]
			case "round", "delay":
				if cur == nil {
					return Strategy{}, fmt.Errorf("adversary: parse %q: %s= before any behavior=", input, key)
				}
				v, err := strconv.Atoi(val)
				if err != nil {
					return Strategy{}, fmt.Errorf("adversary: parse %q: bad %s %q", input, key, val)
				}
				if key == "round" {
					cur.Round = v
				} else {
					cur.Delay = v
				}
			case "victims":
				if cur == nil {
					return Strategy{}, fmt.Errorf("adversary: parse %q: victims= before any behavior=", input)
				}
				ids, err := parseIntList(val)
				if err != nil {
					return Strategy{}, fmt.Errorf("adversary: parse %q: %w", input, err)
				}
				cur.Victims = ids
			case "partition":
				if cur == nil {
					return Strategy{}, fmt.Errorf("adversary: parse %q: partition= before any behavior=", input)
				}
				cur.Partition = val
			default:
				return Strategy{}, fmt.Errorf("adversary: parse %q: unknown parameter %q", input, key)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return Strategy{}, fmt.Errorf("adversary: parse %q: %w", input, err)
	}
	return s, nil
}

// parseIntList parses a "+"-separated id list ("1+2+5").
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, "+") {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad id %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// Package netcond is the network-realism layer: a declarative model of
// imperfect channels — seeded latency/jitter distributions, per-link
// loss and reorder probabilities, bandwidth caps, scripted partitions
// with healing, and honest-node churn with restart-with-recovery —
// compiled into a deterministic delivery schedule.
//
// The paper's model (§2) assumes an ideal synchronous network: reliable
// bounded-time delivery (N1) and trustworthy sender identification
// (N2). A netcond Spec relaxes N1 selectively while leaving N2 intact
// (conditions never forge or alter messages, only delay or drop them),
// so campaigns can ask how each protocol's F1–F3 guarantees degrade
// when the network itself misbehaves rather than the processes.
//
// Determinism contract: a Spec compiled by NewModel draws every
// probabilistic fate from per-directed-link RNG streams derived via
// sim.NetLinkSeed, and only the sender of a link ever draws from its
// stream — so the lockstep simulator and the concurrent transport
// runners compute identical fates, and a (seed, spec) pair yields a
// byte-identical run at any worker count.
package netcond

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Latency distribution names.
const (
	// DistFixed adds a constant delay of Rounds extra rounds.
	DistFixed = "fixed"
	// DistUniform draws an integer delay uniformly from [Min, Max].
	DistUniform = "uniform"
	// DistLognormal draws exp(Mu + Sigma·Z) rounds (Z standard normal),
	// truncated to an integer and capped at Cap — the classic heavy-tailed
	// queueing-delay shape.
	DistLognormal = "lognormal"
)

// Partition split names; the vocabulary matches the adversary layer's
// equivocation partitions so sweeps read uniformly.
const (
	// SplitHalves separates nodes below n/2 from the rest.
	SplitHalves = "halves"
	// SplitEvenOdd separates even node IDs from odd ones.
	SplitEvenOdd = "even-odd"
)

// Parameter bounds. Validation rejects values outside them so a typo'd
// condition fails loudly instead of silently buffering unboundedly or
// scheduling a partition that never matters.
const (
	// MaxLatencyRounds bounds every delay a condition can add.
	MaxLatencyRounds = 1 << 8
	// MaxScriptRound bounds partition and churn round numbers.
	MaxScriptRound = 1 << 16
	// MaxBandwidth bounds the per-link messages-per-round cap.
	MaxBandwidth = 1 << 16
)

// LatencySpec declares the per-message extra-delay distribution. A
// delay of d means the message is delivered d rounds later than the
// ideal next-round delivery.
type LatencySpec struct {
	// Dist is DistFixed, DistUniform, or DistLognormal.
	Dist string `json:"dist"`
	// Rounds is the constant delay for DistFixed.
	Rounds int `json:"rounds,omitempty"`
	// Min and Max bound the DistUniform draw (inclusive).
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// Mu and Sigma parameterize DistLognormal.
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Cap truncates DistLognormal draws (default 8 when zero).
	Cap int `json:"cap,omitempty"`
}

// PartitionSpec scripts one network partition: from round From the two
// sides of Split cannot exchange messages; from round Heal onward the
// cut is healed and messages held during the partition are delivered.
type PartitionSpec struct {
	// Split is SplitHalves or SplitEvenOdd.
	Split string `json:"split"`
	// From is the first partitioned round (≥ 1).
	From int `json:"from"`
	// Heal is the first healed round; 0 means the partition never heals
	// (crossing messages are dropped instead of held).
	Heal int `json:"heal,omitempty"`
}

// ChurnSpec scripts one honest node's crash-and-restart: the node is
// down (delivers nothing, sends nothing) from round Crash, and restarts
// at round Restart with its durable state — keys and directory, the
// "ledger" authentication rests on — recovered, but all volatile
// protocol state lost. Churned nodes count against the fault budget t:
// the paper's model has no notion of a node that is honest yet silent.
type ChurnSpec struct {
	// Node is the churned node's ID.
	Node int `json:"node"`
	// Crash is the first down round (≥ 1).
	Crash int `json:"crash"`
	// Restart is the recovery round; 0 means the node never comes back.
	Restart int `json:"restart,omitempty"`
}

// Spec is one declarative network condition. The zero Spec is the ideal
// network. Specs are plain data: they marshal into campaign specs and
// reports, and Parse reads the compact flag syntax.
type Spec struct {
	// Name overrides the canonical name in group keys and tables.
	Name string `json:"name,omitempty"`
	// Latency, when set, delays every delivered message by a draw from
	// the distribution.
	Latency *LatencySpec `json:"latency,omitempty"`
	// Loss is the per-message drop probability in [0, 1].
	Loss float64 `json:"loss,omitempty"`
	// Reorder is the probability in [0, 1] that a message slips one
	// extra round behind its peers (late arrivals are re-sorted into the
	// destination inbox, so slipping a round is what reordering means in
	// a round-synchronous model).
	Reorder float64 `json:"reorder,omitempty"`
	// Bandwidth caps each directed link at this many messages per round;
	// excess messages queue into later rounds. 0 means unlimited.
	Bandwidth int `json:"bandwidth,omitempty"`
	// Partitions scripts network cuts with optional healing.
	Partitions []PartitionSpec `json:"partitions,omitempty"`
	// Churn scripts honest-node crash/restart cycles.
	Churn []ChurnSpec `json:"churn,omitempty"`
}

// IsIdeal reports whether the spec degrades nothing (the zero Spec,
// possibly named).
func (s Spec) IsIdeal() bool {
	return s.Latency == nil && s.Loss == 0 && s.Reorder == 0 &&
		s.Bandwidth == 0 && len(s.Partitions) == 0 && len(s.Churn) == 0
}

// DegradesLinks reports whether the spec violates the network
// assumption N1 (bounded reliable delivery) on at least one link:
// latency, loss, reorder, bandwidth, or partitions. Churn alone does
// not — a churned node is a faulty process over an ideal network, a
// case the paper's guarantees still cover (which is why conformance
// excuses link degradation but scores churn-only conditions in full).
func (s Spec) DegradesLinks() bool {
	return s.Latency != nil || s.Loss != 0 || s.Reorder != 0 ||
		s.Bandwidth != 0 || len(s.Partitions) > 0
}

// ChurnNodes returns the churned node IDs, sorted and deduplicated.
func (s Spec) ChurnNodes() []int {
	if len(s.Churn) == 0 {
		return nil
	}
	out := make([]int, 0, len(s.Churn))
	for _, c := range s.Churn {
		out = append(out, c.Node)
	}
	sort.Ints(out)
	j := 0
	for i, v := range out {
		if i == 0 || v != out[j-1] {
			out[j] = v
			j++
		}
	}
	return out[:j]
}

// Validate checks every parameter against its bounds. Probabilities
// must be finite and in [0, 1]; NaN is rejected explicitly (NaN fails
// every comparison, so without the check it would slip through).
func (s Spec) Validate() error {
	if err := validProb("loss", s.Loss); err != nil {
		return err
	}
	if err := validProb("reorder", s.Reorder); err != nil {
		return err
	}
	if s.Bandwidth < 0 || s.Bandwidth > MaxBandwidth {
		return fmt.Errorf("netcond: bandwidth %d out of range [0, %d]", s.Bandwidth, MaxBandwidth)
	}
	if l := s.Latency; l != nil {
		switch l.Dist {
		case DistFixed:
			if l.Rounds < 1 || l.Rounds > MaxLatencyRounds {
				return fmt.Errorf("netcond: fixed latency %d out of range [1, %d]", l.Rounds, MaxLatencyRounds)
			}
		case DistUniform:
			if l.Min < 0 || l.Max < l.Min || l.Max > MaxLatencyRounds {
				return fmt.Errorf("netcond: uniform latency bounds [%d, %d] invalid (need 0 ≤ min ≤ max ≤ %d)", l.Min, l.Max, MaxLatencyRounds)
			}
		case DistLognormal:
			if math.IsNaN(l.Mu) || math.IsInf(l.Mu, 0) || math.Abs(l.Mu) > 16 {
				return fmt.Errorf("netcond: lognormal mu %v out of range [-16, 16]", l.Mu)
			}
			if math.IsNaN(l.Sigma) || math.IsInf(l.Sigma, 0) || l.Sigma < 0 || l.Sigma > 16 {
				return fmt.Errorf("netcond: lognormal sigma %v out of range [0, 16]", l.Sigma)
			}
			if l.Cap < 0 || l.Cap > MaxLatencyRounds {
				return fmt.Errorf("netcond: lognormal cap %d out of range [0, %d]", l.Cap, MaxLatencyRounds)
			}
		default:
			return fmt.Errorf("netcond: unknown latency distribution %q", l.Dist)
		}
	}
	for _, p := range s.Partitions {
		if p.Split != SplitHalves && p.Split != SplitEvenOdd {
			return fmt.Errorf("netcond: unknown partition split %q", p.Split)
		}
		if p.From < 1 || p.From > MaxScriptRound {
			return fmt.Errorf("netcond: partition from-round %d out of range [1, %d]", p.From, MaxScriptRound)
		}
		if p.Heal != 0 && (p.Heal <= p.From || p.Heal > MaxScriptRound) {
			return fmt.Errorf("netcond: partition heal-round %d must be 0 or in (%d, %d]", p.Heal, p.From, MaxScriptRound)
		}
	}
	seen := map[int]bool{}
	for _, c := range s.Churn {
		if c.Node < 0 || c.Node > MaxScriptRound {
			return fmt.Errorf("netcond: churn node %d out of range", c.Node)
		}
		if seen[c.Node] {
			return fmt.Errorf("netcond: duplicate churn entry for node %d", c.Node)
		}
		seen[c.Node] = true
		if c.Crash < 1 || c.Crash > MaxScriptRound {
			return fmt.Errorf("netcond: churn crash-round %d out of range [1, %d]", c.Crash, MaxScriptRound)
		}
		if c.Restart != 0 && (c.Restart <= c.Crash || c.Restart > MaxScriptRound) {
			return fmt.Errorf("netcond: churn restart-round %d must be 0 or in (%d, %d]", c.Restart, c.Crash, MaxScriptRound)
		}
	}
	if s.Name != "" {
		if len(s.Name) > 64 {
			return fmt.Errorf("netcond: name longer than 64 bytes")
		}
		if strings.ContainsAny(s.Name, ",;/=@\n\r\t ") {
			return fmt.Errorf("netcond: name %q contains separator characters", s.Name)
		}
	}
	return nil
}

// validProb rejects probabilities outside [0, 1], NaN, and infinities.
func validProb(what string, p float64) error {
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
		return fmt.Errorf("netcond: %s probability %v out of range [0, 1]", what, p)
	}
	return nil
}

// CanonicalName renders the spec as a deterministic, comma- and
// slash-free label for group keys and tables: the explicit Name when
// set, "ideal" for the zero spec, otherwise condition tokens joined by
// dots, e.g. "lat-uniform-0-2.loss-0.05" or "part-even-odd-r1-h3" or
// "churn-2-r2-r4".
func (s Spec) CanonicalName() string {
	if s.Name != "" {
		return s.Name
	}
	if s.IsIdeal() {
		return "ideal"
	}
	var parts []string
	if l := s.Latency; l != nil {
		switch l.Dist {
		case DistFixed:
			parts = append(parts, fmt.Sprintf("lat-fixed-%d", l.Rounds))
		case DistUniform:
			parts = append(parts, fmt.Sprintf("lat-uniform-%d-%d", l.Min, l.Max))
		case DistLognormal:
			parts = append(parts, fmt.Sprintf("lat-lognormal-%s-%s", trimFloat(l.Mu), trimFloat(l.Sigma)))
		}
	}
	if s.Loss != 0 {
		parts = append(parts, "loss-"+trimFloat(s.Loss))
	}
	if s.Reorder != 0 {
		parts = append(parts, "reorder-"+trimFloat(s.Reorder))
	}
	if s.Bandwidth != 0 {
		parts = append(parts, fmt.Sprintf("bw-%d", s.Bandwidth))
	}
	for _, p := range s.Partitions {
		tok := fmt.Sprintf("part-%s-r%d", p.Split, p.From)
		if p.Heal != 0 {
			tok += fmt.Sprintf("-h%d", p.Heal)
		}
		parts = append(parts, tok)
	}
	for _, c := range s.Churn {
		tok := fmt.Sprintf("churn-%d-r%d", c.Node, c.Crash)
		if c.Restart != 0 {
			tok += fmt.Sprintf("-r%d", c.Restart)
		}
		parts = append(parts, tok)
	}
	return strings.Join(parts, ".")
}

// trimFloat renders a float without trailing zeros ("0.05", not
// "0.050000").
func trimFloat(f float64) string {
	out := fmt.Sprintf("%g", f)
	return out
}

// sameSide reports whether nodes a and b are on the same side of the
// named split in a system of n nodes. Unknown splits (impossible after
// Validate) count everything as one side, i.e. no cut.
func sameSide(split string, n, a, b int) bool {
	switch split {
	case SplitHalves:
		return (a < n/2) == (b < n/2)
	case SplitEvenOdd:
		return a%2 == b%2
	default:
		return true
	}
}

package netcond

import (
	"math"
	"math/rand"

	"repro/internal/model"
	"repro/internal/sim"
)

// defaultLognormalCap truncates lognormal draws when Cap is unset.
const defaultLognormalCap = 8

// Model compiles a Spec into a sim.Network: a deterministic
// per-message fate function. One Model serves one run instance and is
// NOT safe for concurrent use — the lockstep engine calls Fate from one
// goroutine, and the transport layer's runners call it under the run's
// one lock. A link's fate depends only on what its sender pushed through
// it, never on how senders interleave (the property that makes socket
// runs match simulator runs byte for byte).
type Model struct {
	spec Spec
	n    int
	seed int64
	// links holds the state of directed link from→to at from·n+to. The
	// table is allocated on the first fate that draws from a link, so a
	// run on an ideal or partition-only network allocates none. A link's
	// stream lives in its slot by value and is seeded on the link's own
	// first draw, so opening a link costs no heap object.
	links []linkState
}

// linkState is one directed link's fate stream and bandwidth window.
type linkState struct {
	src sim.Source // zero until the link's first draw
	// wndRound/wndUsed implement the per-round bandwidth cap: wndUsed
	// counts messages that entered the link in send round wndRound.
	// Both are int32 so a slot of the n·n table is 32 bytes.
	wndRound int32
	wndUsed  int32
}

// NewModel compiles spec for an n-node system under the given run
// seed. Callers should Validate the spec first; NewModel trusts it.
func NewModel(spec Spec, n int, seed int64) *Model {
	return &Model{
		spec: spec,
		n:    n,
		seed: seed,
	}
}

// link returns the state for from→to, seeding its stream on first use.
func (m *Model) link(from, to int) *linkState {
	if m.links == nil {
		m.links = make([]linkState, m.n*m.n)
	}
	ls := &m.links[from*m.n+to]
	if ls.src == (sim.Source{}) {
		ls.src.Seed(sim.NetLinkSeed(m.seed, from, to))
	}
	return ls
}

// Fate implements sim.Network. The draw order per message is fixed —
// partition (no randomness), loss, latency, reorder, bandwidth (no
// randomness) — so a link's RNG stream position depends only on the
// sequence of messages its sender pushed through it, never on other
// links or on which features other messages triggered.
func (m *Model) Fate(msg model.Message, round int) int {
	from, to := int(msg.From), int(msg.To)
	// Scripted partitions first: messages crossing an active cut are
	// held until the heal round (or dropped if the cut never heals),
	// and consume no randomness, so healing a partition replays the
	// same post-heal fates as a run that never had one.
	for _, p := range m.spec.Partitions {
		if round < p.From || (p.Heal != 0 && round >= p.Heal) {
			continue
		}
		if sameSide(p.Split, m.n, from, to) {
			continue
		}
		if p.Heal == 0 {
			return sim.Drop
		}
		// Held until healing: delivered in round p.Heal, i.e. as if
		// sent in round p.Heal-1.
		d := p.Heal - 1 - round
		if d < 0 {
			d = 0
		}
		return d
	}
	var ls *linkState
	if m.spec.Loss > 0 || m.spec.Latency != nil || m.spec.Reorder > 0 || m.spec.Bandwidth > 0 {
		ls = m.link(from, to)
	} else {
		return 0
	}
	// math/rand's own methods over the link's stream; the Rand is a
	// stack value, rebuilt per call (it keeps no state Fate uses).
	rng := rand.New(&ls.src)
	if m.spec.Loss > 0 && rng.Float64() < m.spec.Loss {
		return sim.Drop
	}
	d := 0
	if l := m.spec.Latency; l != nil {
		switch l.Dist {
		case DistFixed:
			d = l.Rounds
		case DistUniform:
			d = l.Min + rng.Intn(l.Max-l.Min+1)
		case DistLognormal:
			cap := l.Cap
			if cap == 0 {
				cap = defaultLognormalCap
			}
			draw := math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
			if x := int(draw); x < cap {
				d = x
			} else {
				d = cap
			}
		}
	}
	if m.spec.Reorder > 0 && rng.Float64() < m.spec.Reorder {
		d++
	}
	if bw := m.spec.Bandwidth; bw > 0 {
		if int(ls.wndRound) != round {
			ls.wndRound = int32(round)
			ls.wndUsed = 0
		}
		ls.wndUsed++
		// Message k (1-based) on a cap-bw link waits (k-1)/bw extra
		// rounds: the first bw go out on time, the next bw one round
		// later, and so on.
		d += int(ls.wndUsed-1) / bw
	}
	return d
}

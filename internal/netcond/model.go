package netcond

import (
	"fmt"
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
	// links holds lazily created per-directed-link state; the map is
	// small (at most n·(n-1) entries) and touched only by the owner.
	links map[linkKey]*linkState
	emit  Emitter
	// partition bookkeeping for one-shot begin/heal events.
	began  []bool
	healed []bool
}

type linkKey struct{ from, to int }

// linkState is one directed link's fate stream and bandwidth window.
type linkState struct {
	rng *rand.Rand
	// wndRound/wndUsed implement the per-round bandwidth cap: wndUsed
	// counts messages that entered the link in send round wndRound.
	wndRound int
	wndUsed  int
}

// NewModel compiles spec for an n-node system under the given run
// seed. Callers should Validate the spec first; NewModel trusts it.
func NewModel(spec Spec, n int, seed int64) *Model {
	return &Model{
		spec:   spec,
		n:      n,
		seed:   seed,
		links:  make(map[linkKey]*linkState),
		began:  make([]bool, len(spec.Partitions)),
		healed: make([]bool, len(spec.Partitions)),
	}
}

// SetEmitter attaches an observability sink for partition/heal/drop/
// delay points. Emission never changes a fate.
func (m *Model) SetEmitter(e Emitter) { m.emit = e }

// Spec returns the compiled spec.
func (m *Model) Spec() Spec { return m.spec }

// link returns (creating on first use) the state for from→to.
func (m *Model) link(from, to int) *linkState {
	k := linkKey{from, to}
	ls := m.links[k]
	if ls == nil {
		ls = &linkState{rng: rand.New(sim.SeededSource(sim.NetLinkSeed(m.seed, from, to)))}
		m.links[k] = ls
	}
	return ls
}

// Fate implements sim.Network. The draw order per message is fixed —
// partition (no randomness), loss, latency, reorder, bandwidth (no
// randomness) — so a link's RNG stream position depends only on the
// sequence of messages its sender pushed through it, never on other
// links or on which features other messages triggered.
func (m *Model) Fate(msg model.Message, round int) int {
	m.noteRound(round)
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
			m.point("net.drop", round, from, "reason=partition", msg)
			return sim.Drop
		}
		// Held until healing: delivered in round p.Heal, i.e. as if
		// sent in round p.Heal-1.
		d := p.Heal - 1 - round
		if d < 0 {
			d = 0
		}
		if d > 0 && m.emit != nil {
			m.point("net.delay", round, from, fmt.Sprintf("reason=partition d=%d", d), msg)
		}
		return d
	}
	var ls *linkState
	if m.spec.Loss > 0 || m.spec.Latency != nil || m.spec.Reorder > 0 || m.spec.Bandwidth > 0 {
		ls = m.link(from, to)
	} else {
		return 0
	}
	if m.spec.Loss > 0 && ls.rng.Float64() < m.spec.Loss {
		m.point("net.drop", round, from, "reason=loss", msg)
		return sim.Drop
	}
	d := 0
	if l := m.spec.Latency; l != nil {
		switch l.Dist {
		case DistFixed:
			d = l.Rounds
		case DistUniform:
			d = l.Min + ls.rng.Intn(l.Max-l.Min+1)
		case DistLognormal:
			cap := l.Cap
			if cap == 0 {
				cap = defaultLognormalCap
			}
			draw := math.Exp(l.Mu + l.Sigma*ls.rng.NormFloat64())
			if x := int(draw); x < cap {
				d = x
			} else {
				d = cap
			}
		}
	}
	if m.spec.Reorder > 0 && ls.rng.Float64() < m.spec.Reorder {
		d++
	}
	if bw := m.spec.Bandwidth; bw > 0 {
		if ls.wndRound != round {
			ls.wndRound = round
			ls.wndUsed = 0
		}
		ls.wndUsed++
		// Message k (1-based) on a cap-bw link waits (k-1)/bw extra
		// rounds: the first bw go out on time, the next bw one round
		// later, and so on.
		d += (ls.wndUsed - 1) / bw
	}
	if d > 0 && m.emit != nil {
		// Checked here, not only in point: an untraced run must not
		// format an attribute nobody reads — one allocation per
		// delayed message.
		m.point("net.delay", round, from, fmt.Sprintf("d=%d", d), msg)
	}
	return d
}

// noteRound emits one-shot partition begin/heal events the first time a
// fate is computed at or past each scripted boundary.
func (m *Model) noteRound(round int) {
	if m.emit == nil {
		return
	}
	for i, p := range m.spec.Partitions {
		if !m.began[i] && round >= p.From {
			m.began[i] = true
			m.emit("net.partition", round, -1, fmt.Sprintf("split=%s from=%d heal=%d", p.Split, p.From, p.Heal))
		}
		if p.Heal != 0 && !m.healed[i] && round >= p.Heal {
			m.healed[i] = true
			m.emit("net.heal", round, -1, fmt.Sprintf("split=%s", p.Split))
		}
	}
}

// point emits one message-scoped event.
func (m *Model) point(scope string, round, node int, attrs string, msg model.Message) {
	if m.emit == nil {
		return
	}
	m.emit(scope, round, node, fmt.Sprintf("%s to=%d kind=%v", attrs, msg.To, msg.Kind))
}

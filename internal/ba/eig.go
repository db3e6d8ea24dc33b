package ba

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/sig"
)

// OM(t) — the oral-messages algorithm of Lamport, Shostak & Pease —
// implemented as exponential information gathering (EIG).
//
// Oral messages have no signatures: a relay can lie arbitrarily about what
// it heard, which is why the algorithm needs n > 3t and exponentially many
// relayed values. The paper cites this as the canonical non-authenticated
// agreement protocol; experiment E8 contrasts its cost explosion with the
// linear authenticated failure-discovery protocol.
//
// EIG formulation: every node maintains a tree of values indexed by
// *paths* — sequences of distinct node IDs starting at the sender. In
// round 1 the sender broadcasts its value (path "0"). In round r, each
// node relays every path of length r−1 that does not already contain the
// node, with itself appended. After round t+1, each node resolves the tree
// bottom-up: a leaf resolves to its stored value (or the default if
// absent); an inner node resolves to the strict majority of its children
// (default if none).
//
// The number of relayed path entries is n·(n−1)·(n−2)⋯ — O(n^t) — while
// the number of physical messages per round is at most n(n−1) (entries are
// batched per destination, as a real implementation would). EIGNode counts
// both so E8 can report the classical exponential quantity alongside wire
// messages.
//
// Because the tree is exponential, the representation is deliberately
// lean. A node sees a handful of distinct values, so each is interned
// once in a per-node table and a tree slot holds its small integer id:
// the slot arrays are pointer-free and resolution votes over integers.
// The tree is stored as rank-indexed per-level slot arrays — a path maps
// to (level, rank) by pure arithmetic (pathRank), so ingest is an array
// write instead of a map insert and resolution never touches a hash
// table. The leaf level, all but a sliver of the tree, is filled and
// resolved inside the final round's Step, so it is borrowed for that one
// call instead of owned for the whole run.
//
// Ingest walks runs, not entries. A run is a maximal stretch of
// consecutive entries of one shape — the same path length and the same
// value length, so the same size on the wire. A correct relay's batch is
// one run when every report carries the same value and two under a
// two-faced sender, and inside a run the next entry lies one fixed stride
// ahead: the walker (oralRun) reads the shape once and then only compares
// each entry's two length fields against it, where an entry-at-a-time walk
// must load a length to learn where the next length lies. A payload that
// changes shape at every entry is runs of one, each costing what an entry
// cost that walk plus one failed comparison — there is one walker for all
// traffic, not a fast path beside a slow one.

// maxEIGNodes is an admission bound: OM(t) is O(n^t), so anywhere near it
// a run is unrunnable anyway and the bound costs nothing real.
const maxEIGNodes = 256

// maxEIGPath is the longest tree path: t+1, where n > 3t.
const maxEIGPath = (maxEIGNodes-1)/3 + 1

// maxEIGLeaf is the second admission bound: the slots of the leaf level,
// which every stepping node borrows whole (64 MiB at the bound). The
// largest trees the repository runs are far below it — n=16 t=5 has
// 240,240 leaves, n=256 t=3 has 16.2 M — and the first one above it,
// n=256 t=4, would borrow 16 GiB.
const maxEIGLeaf = 1 << 24

// defaultID is DefaultValue's id in every node's value table. A tree
// slot holds 0 while empty, else the id of the value reported for it.
const defaultID = 1

// EIGNode is a correct OM(t) participant.
type EIGNode struct {
	id  model.NodeID
	cfg model.Config

	// value is the sender's initial value (sender only).
	value []byte
	// levels[d] holds the slot of every depth-d inner vertex (path length
	// d+1 ≤ t) in resolveTree's enumeration order, addressed by pathRank.
	// The sender has none: it decides its own value.
	levels [][]uint32
	// vals is the value table and ids its index; last is the id interned
	// most recently — in an honest run, the only one there is.
	vals []string
	ids  map[string]uint32
	last uint32
	// entries counts the path entries this node has relayed (the classical
	// OM(t) cost metric).
	entries *atomic.Int64
	// msgBuf is the outgoing message slice, reused across rounds: the
	// engine consumes returned messages before the next round.
	msgBuf []model.Message

	decision Decision
	finished bool
}

// EIGOption configures an EIGNode.
type EIGOption func(*EIGNode)

// WithEIGValue sets the sender's initial value.
func WithEIGValue(v []byte) EIGOption {
	return func(n *EIGNode) { n.value = append([]byte(nil), v...) }
}

// WithEntryCounter shares an entry counter across the cluster, so a run
// can report total relayed entries.
func WithEntryCounter(c *atomic.Int64) EIGOption {
	return func(n *EIGNode) { n.entries = c }
}

// NewEIGNode builds a correct OM(t) participant. OM requires n > 3t; the
// constructor enforces it because the algorithm's guarantees are void
// otherwise.
func NewEIGNode(cfg model.Config, id model.NodeID, opts ...EIGOption) (*EIGNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.N <= 3*cfg.T {
		return nil, fmt.Errorf("ba: OM(t) requires n > 3t, got n=%d t=%d", cfg.N, cfg.T)
	}
	if cfg.N > maxEIGNodes {
		return nil, fmt.Errorf("ba: OM(t) supports at most %d nodes, got n=%d", maxEIGNodes, cfg.N)
	}
	if !id.Valid(cfg.N) {
		return nil, fmt.Errorf("ba: node id %v out of range for n=%d", id, cfg.N)
	}
	n := &EIGNode{id: id, cfg: cfg, entries: new(atomic.Int64)}
	if n.levelSize(cfg.T) > maxEIGLeaf {
		return nil, fmt.Errorf("ba: OM(t) at n=%d t=%d needs more than %d leaf slots per node", cfg.N, cfg.T, maxEIGLeaf)
	}
	n.decision.Node = id
	for _, opt := range opts {
		opt(n)
	}
	if id == Sender {
		if n.value == nil {
			return nil, fmt.Errorf("ba: sender needs WithEIGValue")
		}
		return n, nil
	}
	n.levels = make([][]uint32, cfg.T)
	for d := range n.levels {
		n.levels[d] = make([]uint32, n.levelSize(d))
	}
	n.vals = []string{defaultID: string(DefaultValue)}
	n.ids = map[string]uint32{n.vals[defaultID]: defaultID}
	n.last = defaultID
	return n, nil
}

// Decision implements Decider.
func (n *EIGNode) Decision() Decision { return n.decision }

// Finished implements sim.Finisher.
func (n *EIGNode) Finished() bool { return n.finished }

// EIGEngineRounds returns the lockstep rounds an OM(t) run needs: t+1
// communication rounds plus the resolution step.
func EIGEngineRounds(t int) int { return t + 2 }

// EIGEntries returns the classical OM(t) relayed-entry count of a
// failure-free run. There are (n−1)(n−2)⋯(n−r+1) sender-rooted paths of r
// distinct nodes, and in round r each is reported, by the node that
// extended it, to n−1 destinations.
func EIGEntries(n, t int) int {
	total, paths := 0, 1
	for r := 1; r <= t+1; r++ {
		total += paths * (n - 1)
		paths *= n - r
	}
	return total
}

// levelSize is the number of depth-d tree vertices: the sender-rooted
// paths of d+1 distinct nodes that exclude the resolver. It saturates at
// maxEIGLeaf+1, so no configuration overflows it.
func (n *EIGNode) levelSize(d int) int {
	size := 1
	for i := 0; i < d; i++ {
		children := n.cfg.N - i - 2
		if size > maxEIGLeaf/children {
			return maxEIGLeaf + 1
		}
		size *= children
	}
	return size
}

// leafPool lends out leaf levels. A Step returns its buffer before it
// returns itself, so each goroutine stepping final rounds holds at most
// one: a serial round reuses one buffer for every node, the engine's
// goroutine and each parked helper of a parallel round hold one each, and
// nodes stepping on a transport's goroutines hold their own. The pool
// keeps nothing past the collections that follow a run.
var leafPool sync.Pool

// borrowLeaf returns an empty leaf level of the given size.
func borrowLeaf(size int) *[]uint32 {
	if p, _ := leafPool.Get().(*[]uint32); p != nil && cap(*p) >= size {
		*p = (*p)[:size]
		clear(*p)
		return p
	}
	leaf := make([]uint32, size)
	return &leaf
}

// pathRank checks, in one sweep over its hops as they lie on the wire,
// that a path reported by from is structurally possible, and maps it to
// its slot index within level len(hops)-1. Possible means: it starts at
// the sender, its last hop is from (a node can only report paths it
// itself extended), and its hops are distinct nodes of the cluster, none
// of them this node — every path through our own tree excludes us. The
// caller has checked the round's length. These checks need no
// cryptography — they are the only defense oral messages afford.
//
// The rank is the path's mixed-radix position in resolveTree's
// enumeration order: the children of the vertex at (level d, rank i)
// occupy slots [i*(n-d-2), (i+1)*(n-d-2)) of level d+1, ordered by
// ascending node ID among the IDs not excluded (the path prefix and the
// resolver). So hop i contributes its ID less the excluded IDs below it,
// which the distinctness scan counts as it goes; paths are at most t+1
// long, so the quadratic scan beats a set. A hop is compared unsigned: an
// ID of 2⁶³ and up is out of range, not negative. hops is the caller's
// scratch for the decoded path, len(hops) its length; hops[0] is never
// written, since the sender is below every later hop. The receiver is a
// lieutenant: the sender holds no tree.
func (n *EIGNode) pathRank(wire []byte, from model.NodeID, hops []uint64) (rank int, ok bool) {
	last := len(hops) - 1
	if binary.BigEndian.Uint64(wire) != uint64(Sender) ||
		binary.BigEndian.Uint64(wire[sig.IntFieldSize*last:]) != uint64(from) {
		return 0, false
	}
	size, self := uint64(n.cfg.N), uint64(n.id)
	for i := 1; i <= last; i++ {
		h := binary.BigEndian.Uint64(wire[sig.IntFieldSize*i:])
		// Hop 0 is the sender, ID 0: one unsigned compare rejects a repeat
		// of it and an ID out of range alike, and counts it below h.
		if h-1 >= size-1 || h == self {
			return 0, false
		}
		// Both sides are below 2⁶³, so the difference's top bit says
		// which is the smaller.
		below := 1 + (self-h)>>63
		for _, p := range hops[1:i] {
			if p == h {
				return 0, false
			}
			below += (p - h) >> 63
		}
		hops[i] = h
		rank = rank*(n.cfg.N-i-1) + int(h-below)
	}
	return rank, true
}

// intern returns v's id in the value table, copying v into the table the
// first time it is seen.
func (n *EIGNode) intern(v []byte) uint32 {
	if string(v) == n.vals[n.last] {
		return n.last
	}
	id, ok := n.ids[string(v)]
	if !ok {
		id = uint32(len(n.vals))
		n.vals = append(n.vals, string(v))
		n.ids[n.vals[id]] = id
	}
	n.last = id
	return id
}

// OralEntry is one (path, value) report on the wire. Exported so
// adversarial tests can fabricate lies.
type OralEntry struct {
	Path  []model.NodeID
	Value []byte
}

// MarshalOralEntries batches path entries into one exactly-sized payload:
// the entry count, then per entry the path length, the path's node IDs
// and the length-prefixed value, every integer a fixed-width field.
func MarshalOralEntries(entries []OralEntry) []byte {
	size := sig.IntFieldSize
	for _, en := range entries {
		size += sig.IntFieldSize*(1+len(en.Path)) + sig.BytesFieldSize(len(en.Value))
	}
	out := make([]byte, 0, size)
	out = sig.AppendInt(out, len(entries))
	for _, en := range entries {
		out = sig.AppendInt(out, len(en.Path))
		for _, p := range en.Path {
			out = sig.AppendInt(out, int(p))
		}
		out = sig.AppendBytes(out, en.Value)
	}
	return out
}

// What one oral payload may claim; beyond these it is malformed.
const (
	maxOralEntries  = 1 << 22
	maxOralPathLen  = 1 << 10
	maxOralValueLen = 16 << 20 // sig's bound on one encoded field
)

// oralRun reads the run that opens at data[off:], of at most left
// entries: its shape — path length, the value field's offset inside an
// entry, the entry's size — and how many entries it holds. It checks the
// first entry's two length fields against their limits and the payload's
// end, then steps from entry to entry at the fixed stride while the next
// one fits and both its length fields equal the run's; such an entry is
// as well-formed as the first. Splitting on both fields, never on the
// stride, is what keeps the walk exact: a path one hop longer under a
// value eight bytes shorter has the same stride and is another shape.
// Whatever ends the run — another shape, a bad length, the payload's end
// — is the next call's first entry and gets the full checks there.
// entries is 0 when the first entry is malformed.
func oralRun(data []byte, off, left int) (plen uint64, val, stride, entries int) {
	if len(data)-off < sig.IntFieldSize {
		return 0, 0, 0, 0
	}
	plen = binary.BigEndian.Uint64(data[off:])
	if plen < 1 || plen > maxOralPathLen {
		return 0, 0, 0, 0
	}
	val = sig.IntFieldSize * (1 + int(plen))
	if len(data)-off-val < sig.BytesFieldSize(0) {
		return 0, 0, 0, 0
	}
	vlen := binary.BigEndian.Uint32(data[off+val:])
	if vlen > maxOralValueLen {
		return 0, 0, 0, 0
	}
	stride = val + sig.BytesFieldSize(int(vlen))
	if len(data)-off < stride {
		return 0, 0, 0, 0
	}
	left = min(left, (len(data)-off)/stride)
	for entries = 1; entries < left; entries++ {
		off += stride
		if binary.BigEndian.Uint64(data[off:]) != plen || binary.BigEndian.Uint32(data[off+val:]) != vlen {
			break
		}
	}
	return plen, val, stride, entries
}

// oralEntryCount is the structural pass over one oral payload: it walks
// the payload run by run, reading no path and no value, and returns the
// entry count. ok is false for a malformed payload: truncated, trailing
// bytes, or a count or length past its limit. Ingest stores nothing from
// a payload before this pass has seen all of it.
func oralEntryCount(data []byte) (count int, ok bool) {
	if len(data) < sig.IntFieldSize {
		return 0, false
	}
	claimed := binary.BigEndian.Uint64(data)
	if claimed > maxOralEntries {
		return 0, false
	}
	off := sig.IntFieldSize
	for left := int(claimed); left > 0; {
		_, _, stride, entries := oralRun(data, off, left)
		if entries == 0 {
			return 0, false
		}
		off += entries * stride
		left -= entries
	}
	return int(claimed), off == len(data)
}

// Step implements the sim Process contract.
func (n *EIGNode) Step(round int, received []model.Message) []model.Message {
	t := n.cfg.T
	final := round == EIGEngineRounds(t)
	if n.id == Sender {
		// The commander only speaks. Every tree path starts with it and no
		// node stores a path through itself (pathRank), so nothing it is
		// sent could be stored or relayed; as in Lamport's formulation it
		// decides its own value, and validity is immediate.
		switch {
		case round == 1:
			n.entries.Add(int64(n.cfg.N - 1))
			return n.broadcast(MarshalOralEntries([]OralEntry{{Path: []model.NodeID{Sender}, Value: n.value}}))
		case final:
			n.decision.Value = append([]byte(nil), n.value...)
			n.finished = true
		}
		return nil
	}
	// Round r delivers the reports sent in round r−1: paths of length r−1,
	// the vertices of tree level r−2. The last level is the leaves.
	plen := round - 1
	if plen < 1 || plen > t+1 {
		return nil
	}
	if final {
		leaf := borrowLeaf(n.levelSize(t))
		n.ingest(received, plen, *leaf, nil)
		n.decision.Value = append([]byte(nil), n.vals[n.resolveTree(*leaf)]...)
		n.finished = true
		leafPool.Put(leaf)
		return nil
	}
	// An extended entry is 8 bytes longer than the entry it extends, which
	// is at least 20, so 7/5 of the inbox holds the whole batch.
	size := sig.IntFieldSize
	for _, m := range received {
		size += len(m.Payload) * 7 / 5
	}
	relay, relayed := n.ingest(received, plen, n.levels[plen-1], make([]byte, sig.IntFieldSize, size))
	if relayed == 0 {
		return nil
	}
	n.entries.Add(int64(relayed * (n.cfg.N - 1)))
	return n.broadcast(relay)
}

// ingest streams one round's inbox into level, the tree level of paths of
// length plen; the first report of a path wins. Oral messages carry no
// signatures: a node can only sanity-check structure, not content — that
// weakness is the whole point of OM(t)'s redundancy. A malformed payload
// stores nothing; the majority vote absorbs the silence.
//
// The storing pass walks the runs the structural pass walked: a run of
// another round's path length is stepped over whole, a run of this
// round's is stored entry by entry at its fixed stride — path validity
// and rank in one sweep over the wire bytes (pathRank), no decoded path
// in between.
//
// A relay round passes the outgoing batch, its count field in place, as
// relay: every report stored is appended to it extended by this node, and
// the batch comes back with the count filled in. The extensions are NOT
// stored in the tree: every path through our own tree excludes us
// (pathRank), so resolution never reads them. The final round passes nil.
func (n *EIGNode) ingest(received []model.Message, plen int, level []uint32, relay []byte) ([]byte, int) {
	// Declared once per call: as a local of a per-entry function its 688
	// bytes would be zeroed per entry.
	var hopBuf [maxEIGPath]uint64
	hops := hopBuf[:plen]
	relayed := 0
	for _, m := range received {
		if m.Kind != model.KindOral {
			continue // not a protocol message; OM ignores it
		}
		data := m.Payload
		left, ok := oralEntryCount(data)
		if !ok {
			continue
		}
		for off := sig.IntFieldSize; left > 0; {
			runPlen, val, stride, entries := oralRun(data, off, left)
			left -= entries
			if runPlen != uint64(plen) {
				off += entries * stride
				continue
			}
			for ; entries > 0; entries, off = entries-1, off+stride {
				en := data[off : off+stride]
				rank, ok := n.pathRank(en[sig.IntFieldSize:val], m.From, hops)
				if !ok {
					continue
				}
				slot := &level[rank]
				if *slot != 0 {
					continue // duplicates are faulty noise
				}
				*slot = n.intern(en[val+sig.BytesFieldSize(0):])
				if relay != nil {
					relay = sig.AppendInt(relay, plen+1)
					relay = append(relay, en[sig.IntFieldSize:val]...)
					relay = sig.AppendInt(relay, int(n.id))
					relay = append(relay, en[val:]...)
					relayed++
				}
			}
		}
	}
	if relay != nil {
		binary.BigEndian.PutUint64(relay, uint64(relayed))
	}
	return relay, relayed
}

// broadcast sends one payload to every other node. The returned slice is
// reused next round; the engine consumes it before then.
func (n *EIGNode) broadcast(payload []byte) []model.Message {
	if cap(n.msgBuf) < n.cfg.N-1 {
		n.msgBuf = make([]model.Message, 0, n.cfg.N-1)
	}
	out := model.AppendBroadcast(n.msgBuf[:0], n.cfg.N, n.id, model.KindOral, payload)
	n.msgBuf = out
	return out
}

// resolveTree runs the classical EIG bottom-up majority resolution over
// the rank-indexed levels and returns the root's value id. The slots of
// level d are in generation order and every vertex of level d has exactly
// n-d-2 children, laid out contiguously in level d+1, so parent→child
// indexing is pure arithmetic — no keys, no hashing, no recursion. Each
// inner slot is overwritten by its resolution: a vertex's votes are its
// own stored value (what the resolver received directly) and its
// children's resolutions, and a run resolves once.
func (n *EIGNode) resolveTree(leaf []uint32) uint32 {
	below := leaf
	for d := n.cfg.T - 1; d >= 0; d-- {
		perVertex := n.cfg.N - d - 2
		for i, own := range n.levels[d] {
			n.levels[d][i] = majority(own, below[i*perVertex:(i+1)*perVertex])
		}
		below = n.levels[d]
	}
	return max(below[0], defaultID)
}

// majority returns the strict-majority id among own and kids, or
// defaultID if none exists. An empty slot votes for the default; it is
// counted apart from defaultID all the same, because that can only cost
// the default a majority, and no majority resolves to the default anyway.
// Boyer–Moore candidate selection plus one confirmation pass: no counting
// map, and the same result as exhaustive counting (a strict majority is
// unique when it exists).
func majority(own uint32, kids []uint32) uint32 {
	cand, count := own, 1
	for _, v := range kids {
		switch {
		case count == 0:
			cand, count = v, 1
		case v == cand:
			count++
		default:
			count--
		}
	}
	total := 0
	if own == cand {
		total = 1
	}
	for _, v := range kids {
		if v == cand {
			total++
		}
	}
	if 2*total > len(kids)+1 {
		return max(cand, defaultID)
	}
	return defaultID
}

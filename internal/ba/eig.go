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
// Ingest reads each payload once, by runs. A run is a maximal stretch of
// consecutive entries of one shape — the same path length and the same
// value length, so the same size on the wire. A correct relay's batch is
// one run when every report carries the same value and two under a
// two-faced sender, and inside a run the next entry lies one fixed stride
// ahead: the walk checks an entry's length fields against their limits
// only where the shape changes (shapeAt), and inside a run compares the
// two fields against the run's and stores the entry on the spot. A
// payload that changes shape at every entry is runs of one, each paying
// the full checks — one walk for all traffic, not a fast path beside a
// slow one. Storing before the payload's end is seen makes each payload a
// transaction: the ranks it stored go into an undo log, and a payload
// that proves malformed gives back its slots, its relayed entries and the
// values it interned. Checks on the reporter are made once per payload
// (reporterOf), so the per-entry sweep (pathRank) covers the hops between
// the sender and the reporter.

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

// Outcome implements fd.Outcomer, so OM(t) runs are read like every
// other protocol's: a node has decided once it resolved a value. OM(t)
// has no discovery concept.
func (n *EIGNode) Outcome() model.Outcome {
	return model.Outcome{Node: n.id, Decided: n.decision.Value != nil, Value: n.decision.Value}
}

// Finished implements sim.Finisher.
func (n *EIGNode) Finished() bool { return n.finished }

// EIGEngineRounds returns the lockstep rounds an OM(t) run needs: t+1
// communication rounds plus the resolution step.
func EIGEngineRounds(t int) int { return t + 2 }

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

// undoPool lends out undo logs, the ranks one payload has stored so far,
// held for one ingest call as a leaf level is for one Step.
var undoPool sync.Pool

// borrow returns a zeroed slice of the given size from one of the pools.
func borrow(pool *sync.Pool, size int) *[]uint32 {
	if p, _ := pool.Get().(*[]uint32); p != nil && cap(*p) >= size {
		*p = (*p)[:size]
		clear(*p)
		return p
	}
	s := make([]uint32, size)
	return &s
}

// reporter is what pathRank needs of a payload's sender, worked out once
// per payload: the ID every path it reports must end at, and how many of
// the IDs excluded below that last hop are known before a path is read —
// the sender's and, if lower, this node's.
type reporter struct {
	id, below uint64
}

// reporterOf returns what pathRank needs of from, or false when no path
// of length plen that from could report is one this node stores: only
// the sender reports a path of one hop, and a longer path ends at a node
// of the cluster that is neither the sender nor this one. A payload from
// such a sender can store nothing, so ingest does not read it.
func (n *EIGNode) reporterOf(from model.NodeID, plen int) (reporter, bool) {
	f, self := uint64(from), uint64(n.id)
	if plen == 1 {
		return reporter{id: f}, from == Sender
	}
	// One unsigned compare rejects the sender and an ID out of range alike.
	if f-1 >= uint64(n.cfg.N)-1 || f == self {
		return reporter{}, false
	}
	return reporter{id: f, below: 1 + (self-f)>>63}, true
}

// pathRank checks, in one sweep over its hops as they lie on the wire,
// that a path reported by from is structurally possible, and maps it to
// its slot index within level len(hops)-1. Possible means: it starts at
// the sender, its last hop is the reporter (a node can only report paths
// it itself extended), and its hops are distinct nodes of the cluster,
// none of them this node — every path through our own tree excludes us.
// The caller has checked the round's length, and reporterOf that the
// reporter is a possible last hop, so the sweep covers only the hops in
// between. These checks need no cryptography — they are the only defense
// oral messages afford.
//
// The rank is the path's mixed-radix position in resolveTree's
// enumeration order: the children of the vertex at (level d, rank i)
// occupy slots [i*(n-d-2), (i+1)*(n-d-2)) of level d+1, ordered by
// ascending node ID among the IDs not excluded (the path prefix and the
// resolver). So hop i contributes its ID less the excluded IDs below it,
// which the distinctness scan counts as it goes; the middle hops below
// the last one are counted into from's share on the way. Paths are at
// most t+1 long, so the quadratic scan beats a set. A hop is compared
// unsigned: an ID of 2⁶³ and up is out of range, not negative. hops is
// the caller's scratch for the decoded path, len(hops) its length; only
// the middle hops are written. The receiver is a lieutenant: the sender
// holds no tree.
func (n *EIGNode) pathRank(wire []byte, from reporter, hops []uint64) (rank int, ok bool) {
	last := len(hops) - 1
	if binary.BigEndian.Uint64(wire) != uint64(Sender) ||
		binary.BigEndian.Uint64(wire[sig.IntFieldSize*last:]) != from.id {
		return 0, false
	}
	size, self, fromBelow := uint64(n.cfg.N), uint64(n.id), from.below
	for i := 1; i < last; i++ {
		h := binary.BigEndian.Uint64(wire[sig.IntFieldSize*i:])
		// Hop 0 is the sender, ID 0: one unsigned compare rejects a repeat
		// of it and an ID out of range alike, and counts it below h.
		if h-1 >= size-1 || h == self || h == from.id {
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
		fromBelow += (h - from.id) >> 63
		hops[i] = h
		rank = rank*(n.cfg.N-i-1) + int(h-below)
	}
	// A one-hop path is the sender's: id and below are 0, and so is rank.
	return rank*(n.cfg.N-last-1) + int(from.id-fromBelow), true
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

// forget drops the values interned since the table held mark of them and
// makes last the most recent again: what a malformed payload interned
// leaves with it.
func (n *EIGNode) forget(mark int, last uint32) {
	for _, v := range n.vals[mark:] {
		delete(n.ids, v)
	}
	clear(n.vals[mark:])
	n.vals, n.last = n.vals[:mark], last
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

// entryShape is what the entries of one run share: the path length and
// the value length, and from them the value field's offset inside an
// entry and the entry's size on the wire.
type entryShape struct {
	plen        uint64
	vlen        uint32
	val, stride int
}

// shapeAt reads the shape of the entry at data[off:], checking both its
// length fields against their limits and the payload's end — the full
// checks, made where a run opens. ok is false when the entry is
// malformed.
func shapeAt(data []byte, off int) (s entryShape, ok bool) {
	if len(data)-off < sig.IntFieldSize {
		return s, false
	}
	s.plen = binary.BigEndian.Uint64(data[off:])
	if s.plen < 1 || s.plen > maxOralPathLen {
		return s, false
	}
	s.val = sig.IntFieldSize * (1 + int(s.plen))
	if len(data)-off-s.val < sig.BytesFieldSize(0) {
		return s, false
	}
	s.vlen = binary.BigEndian.Uint32(data[off+s.val:])
	if s.vlen > maxOralValueLen {
		return s, false
	}
	s.stride = s.val + sig.BytesFieldSize(int(s.vlen))
	return s, len(data)-off >= s.stride
}

// continues reports whether the payload holds an entry of shape s at
// data[off:]: it fits, and both its length fields equal the run's, which
// makes it as well-formed as the run's first entry. Splitting on both
// fields, never on the stride, is what keeps the walk exact: a path one
// hop longer under a value eight bytes shorter has the same stride and is
// another shape.
func (s entryShape) continues(data []byte, off int) bool {
	return len(data)-off >= s.stride &&
		binary.BigEndian.Uint64(data[off:]) == s.plen &&
		binary.BigEndian.Uint32(data[off+s.val:]) == s.vlen
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
		leaf := borrow(&leafPool, n.levelSize(t))
		n.ingest(received, plen, *leaf, nil)
		n.decision.Value = append([]byte(nil), n.vals[n.resolveTree(*leaf)]...)
		n.finished = true
		leafPool.Put(leaf)
		return nil
	}
	relay, relayed := n.ingest(received, plen, n.levels[plen-1], make([]byte, sig.IntFieldSize, relayBound(received)))
	if relayed == 0 {
		return nil
	}
	n.entries.Add(int64(relayed * (n.cfg.N - 1)))
	return n.broadcast(relay)
}

// relayBound is an exact upper bound on the relay batch one round's inbox
// can produce, so the batch is allocated once and never grows: the count
// field, and per oral payload its body plus 8 bytes per entry — a relayed
// entry is the entry it extends plus one hop.
func relayBound(received []model.Message) int {
	size := sig.IntFieldSize
	for _, m := range received {
		if m.Kind == model.KindOral && len(m.Payload) >= sig.IntFieldSize {
			size += len(m.Payload) - sig.IntFieldSize + sig.IntFieldSize*claimedEntries(m)
		}
	}
	return size
}

// claimedEntries is the entry count an oral payload claims, capped at
// what its body can hold, so a lying count inflates nothing: the
// smallest entry on the wire is a one-hop path under an empty value.
func claimedEntries(m model.Message) int {
	if m.Kind != model.KindOral || len(m.Payload) < sig.IntFieldSize {
		return 0
	}
	minEntry := sig.IntFieldSize*2 + sig.BytesFieldSize(0)
	body := len(m.Payload) - sig.IntFieldSize
	return int(min(binary.BigEndian.Uint64(m.Payload), uint64(body/minEntry)))
}

// Work implements sim.Worker: the entries the round's oral payloads
// claim, which ingest will walk. The commander ingests nothing.
func (n *EIGNode) Work(round int, received []model.Message) int {
	if n.id == Sender {
		return 0
	}
	entries := 0
	for _, m := range received {
		entries += claimedEntries(m)
	}
	return entries
}

// ingest streams one round's inbox into level, the tree level of paths of
// length plen; the first report of a path wins. Oral messages carry no
// signatures: a node can only sanity-check structure, not content — that
// weakness is the whole point of OM(t)'s redundancy. A malformed payload
// stores nothing; the majority vote absorbs the silence.
//
// Each payload is read once (ingestPayload) and stored as it is read, so
// each is a transaction: the ranks it stored are logged, and if it proves
// malformed — a bad length field, truncation, a count mismatch, trailing
// bytes — its slots are zeroed, its relayed entries cut off the batch and
// the values it interned forgotten, as if it had never come. A payload
// whose sender can report no path this node stores is not read at all
// (reporterOf).
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
	// A payload stores only paths that end at its sender, and the n−2
	// possible last hops share a level of longer paths evenly, so a log
	// of this size never grows.
	undoLog := borrow(&undoPool, len(level)/max(n.cfg.N-2, 1)+1)
	undo := (*undoLog)[:0]
	relayed := 0
	for _, m := range received {
		if m.Kind != model.KindOral {
			continue // not a protocol message; OM ignores it
		}
		from, ok := n.reporterOf(m.From, plen)
		if !ok {
			continue
		}
		vals, last, mark := len(n.vals), n.last, len(relay)
		if undo, relay, ok = n.ingestPayload(m.Payload, from, level, hops, undo[:0], relay); ok {
			if relay != nil {
				relayed += len(undo)
			}
			continue
		}
		for _, rank := range undo {
			level[rank] = 0
		}
		n.forget(vals, last)
		relay = relay[:mark]
	}
	*undoLog = undo[:0]
	undoPool.Put(undoLog)
	if relay != nil {
		binary.BigEndian.PutUint64(relay, uint64(relayed))
	}
	return relay, relayed
}

// ingestPayload walks one payload, sent by from, into level, run by run:
// entries of the round's path length are stored as the walk reaches them
// — path validity and rank in one sweep over the wire bytes (pathRank),
// no decoded path in between — each stored rank appended to undo and, in
// a relay round, the extended entry to relay. Runs of another length are
// stepped over. It returns false as soon as the payload proves
// malformed; undoing what it stored is the caller's.
func (n *EIGNode) ingestPayload(data []byte, from reporter, level []uint32, hops []uint64, undo []uint32, relay []byte) ([]uint32, []byte, bool) {
	if len(data) < sig.IntFieldSize {
		return undo, relay, false
	}
	left := binary.BigEndian.Uint64(data)
	if left > maxOralEntries {
		return undo, relay, false
	}
	plen := uint64(len(hops))
	off := sig.IntFieldSize
	for left > 0 {
		s, ok := shapeAt(data, off)
		if !ok {
			return undo, relay, false
		}
		for {
			if s.plen == plen {
				en := data[off : off+s.stride]
				// A path already told is faulty noise: the first report wins.
				if rank, ok := n.pathRank(en[sig.IntFieldSize:s.val], from, hops); ok && level[rank] == 0 {
					level[rank] = n.intern(en[s.val+sig.BytesFieldSize(0):])
					undo = append(undo, uint32(rank))
					if relay != nil {
						relay = sig.AppendInt(relay, int(plen)+1)
						relay = append(relay, en[sig.IntFieldSize:s.val]...)
						relay = sig.AppendInt(relay, int(n.id))
						relay = append(relay, en[s.val:]...)
					}
				}
			}
			off += s.stride
			if left--; left == 0 || !s.continues(data, off) {
				break
			}
		}
	}
	return undo, relay, off == len(data)
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

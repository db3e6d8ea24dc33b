package ba

import (
	"bytes"
	"fmt"
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
// lean: the tree is stored as rank-indexed per-level slot arrays — a
// path maps to (level, rank) by pure arithmetic (rankOf), so ingest is
// an array write instead of a map insert and resolution never touches a
// hash table — and the per-round relay and message slices are reused
// across rounds.

// maxEIGNodes bounds the system size so a node ID always packs into one
// key byte. OM(t) is O(n^t); anywhere near this bound it is unrunnable
// anyway, so the bound costs nothing real.
const maxEIGNodes = 256

// EIGNode is a correct OM(t) participant.
type EIGNode struct {
	id  model.NodeID
	cfg model.Config

	// value is the sender's initial value (sender only).
	value []byte
	// levels[d] holds every depth-d tree vertex (path length d+1) in
	// resolveTree's enumeration order, addressed by rankOf.
	levels []eigLevel
	// entries counts the path entries this node has relayed (the classical
	// OM(t) cost metric).
	entries *atomic.Int64

	// Per-round scratch, reused across Step calls to keep the relay loop
	// allocation-flat: ingested-entry and relay-entry slices, the arena
	// backing extended paths, the path buffer of the final-round streaming
	// ingest, and the outgoing message slice (the engine consumes returned
	// messages before the next round, so the backing array can be
	// recycled).
	freshBuf    []OralEntry
	relayBuf    []OralEntry
	extArena    []model.NodeID
	pathScratch []model.NodeID
	msgBuf      []model.Message

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
	n := &EIGNode{
		id:      id,
		cfg:     cfg,
		levels:  makeEIGLevels(cfg),
		entries: new(atomic.Int64),
	}
	n.decision.Node = id
	for _, opt := range opts {
		opt(n)
	}
	if id == Sender && n.value == nil {
		return nil, fmt.Errorf("ba: sender needs WithEIGValue")
	}
	return n, nil
}

// Decision implements Decider.
func (n *EIGNode) Decision() Decision { return n.decision }

// Finished implements sim.Finisher.
func (n *EIGNode) Finished() bool { return n.finished }

// EIGEngineRounds returns the lockstep rounds an OM(t) run needs: t+1
// communication rounds plus the resolution step.
func EIGEngineRounds(t int) int { return t + 2 }

// EIGEntries returns the classical OM(t) relayed-entry count for a
// failure-free run: sum over rounds r=1..t+1 of n·(n−1)⋯ falling
// factorial terms. Round 1 contributes n−1 entries (the sender's
// broadcast); round r>1 contributes (n−1)(n−2)⋯(n−r+1)·(n−r)… — computed
// exactly by simulating the path counts.
func EIGEntries(n, t int) int {
	// paths[r] = number of distinct paths of length r (starting at the
	// sender, distinct nodes). Each such path is relayed to n-1
	// destinations... counted as entries delivered.
	total := 0
	paths := 1 // the sender's root path of length 1 ("0")
	// Round 1: sender sends the root value to n-1 nodes.
	total += n - 1
	for r := 2; r <= t+1; r++ {
		// Each node not on a path of length r-1 extends it and broadcasts
		// to n-1 destinations. Number of length-r paths: paths * (n-(r-1)).
		paths *= n - (r - 1)
		total += paths * (n - 1)
	}
	return total
}

// eigLevel is one depth level of the EIG tree: every possible vertex has
// a pre-assigned slot, addressed by rankOf. occ marks filled slots.
type eigLevel struct {
	count int
	occ   []bool
	val   [][]byte
}

// makeEIGLevels sizes the slot arrays: level d holds every length-(d+1)
// sender-rooted path of distinct nodes excluding the resolver, so
// count(0)=1 and count(d+1) = count(d) * (n-d-2).
func makeEIGLevels(cfg model.Config) []eigLevel {
	levels := make([]eigLevel, cfg.T+1)
	count := 1
	for d := 0; d <= cfg.T; d++ {
		if d > 0 {
			count *= cfg.N - d - 1
		}
		levels[d] = eigLevel{count: count, occ: make([]bool, count), val: make([][]byte, count)}
	}
	return levels
}

// rankOf maps a tree path to its slot index within level len(path)-1.
// The rank is the path's mixed-radix position in resolveTree's
// enumeration order: the children of the vertex at (level d, rank i)
// occupy slots [i*(n-d-2), (i+1)*(n-d-2)) of level d+1, ordered by
// ascending node ID among the IDs not excluded (the path prefix and the
// resolver). Precondition: the path is valid in validPath's sense —
// sender-rooted, distinct, no element equal to the resolver — otherwise
// the arithmetic may alias a valid path's slot.
func (n *EIGNode) rankOf(path []model.NodeID) int {
	r := int(n.id)
	size := n.cfg.N
	rank := 0
	for i := 1; i < len(path); i++ {
		q := int(path[i])
		below := 0
		rIn := false
		for j := 0; j < i; j++ {
			pj := int(path[j])
			if pj < q {
				below++
			}
			if pj == r {
				rIn = true
			}
		}
		if !rIn && r < q {
			below++
		}
		rank = rank*(size-i-1) + q - below
	}
	return rank
}

// storePath inserts a reported value at its path's slot, first report
// wins. It reports whether the slot was fresh.
func (n *EIGNode) storePath(path []model.NodeID, v []byte) bool {
	d := len(path) - 1
	if d < 0 || d >= len(n.levels) {
		return false
	}
	lv := &n.levels[d]
	idx := n.rankOf(path)
	if idx < 0 || idx >= lv.count || lv.occ[idx] {
		return false
	}
	lv.occ[idx] = true
	lv.val[idx] = v
	return true
}

// loadPath returns the value stored at path, if any.
func (n *EIGNode) loadPath(path []model.NodeID) ([]byte, bool) {
	d := len(path) - 1
	if d < 0 || d >= len(n.levels) {
		return nil, false
	}
	lv := &n.levels[d]
	idx := n.rankOf(path)
	if idx < 0 || idx >= lv.count || !lv.occ[idx] {
		return nil, false
	}
	return lv.val[idx], true
}

// OralEntry is one (path, value) report on the wire. Exported so
// adversarial tests can fabricate lies.
type OralEntry struct {
	Path  []model.NodeID
	Value []byte
}

// MarshalOralEntries batches path entries into one exactly-sized payload.
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

// unmarshalOralEntries decodes a batched payload in two passes: the
// first validates the structure and sizes the backing arenas, the second
// fills them. Every entry's path (and value) is a subslice of one shared
// buffer, so decoding k entries costs at most four allocations (decoder,
// entry slice, path arena, value arena) instead of 2k+1 — the per-entry
// churn was a ROADMAP hot spot, and OM(t) decodes O(n^t) entries per run.
func unmarshalOralEntries(data []byte) ([]OralEntry, error) {
	d := sig.NewDecoder(data)
	count := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if count < 0 || count > 1<<22 {
		return nil, fmt.Errorf("ba: implausible entry count %d", count)
	}
	totalPath, totalVal := 0, 0
	for i := 0; i < count; i++ {
		plen := d.Int()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if plen < 1 || plen > 1<<10 {
			return nil, fmt.Errorf("ba: implausible path length %d", plen)
		}
		for j := 0; j < plen; j++ {
			d.Int()
		}
		totalVal += len(d.Bytes())
		totalPath += plen
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	out := make([]OralEntry, count)
	pathArena := make([]model.NodeID, totalPath)
	valArena := make([]byte, 0, totalVal)
	d.Reset(data)
	d.Int() // count, validated above
	for i := range out {
		plen := d.Int()
		path := pathArena[:plen:plen]
		pathArena = pathArena[plen:]
		for j := range path {
			path[j] = model.NodeID(d.Int())
		}
		valStart := len(valArena)
		valArena = append(valArena, d.Bytes()...)
		out[i] = OralEntry{Path: path, Value: valArena[valStart:len(valArena):len(valArena)]}
	}
	return out, nil
}

// Step implements the sim Process contract.
func (n *EIGNode) Step(round int, received []model.Message) []model.Message {
	t := n.cfg.T
	if round == EIGEngineRounds(t) {
		// Final round: ingest straight into the tree and resolve. Entries
		// arriving now are never relayed again, so building []OralEntry
		// batches (and their path/value arenas) for them — the single
		// largest allocation of a whole run — would be pure garbage; the
		// streaming ingest copies only the values that land in fresh slots.
		n.ingestFinal(round, received)
		n.resolve()
		n.finished = true
		return nil
	}
	// Ingest reports from the previous round. Oral messages carry no
	// signatures: a node can only sanity-check structure, not content —
	// that weakness is the whole point of OM(t)'s redundancy.
	fresh := n.ingestSerial(round, received, n.freshBuf[:0])
	n.freshBuf = fresh

	switch {
	case round == 1 && n.id == Sender:
		n.storePath([]model.NodeID{Sender}, n.value)
		if t == 0 {
			n.finished = true
		}
		root := OralEntry{Path: []model.NodeID{Sender}, Value: n.value}
		n.entries.Add(int64(n.cfg.N - 1))
		return n.broadcast([]OralEntry{root})
	case round >= 2 && round <= t+1:
		// Relay every fresh path that does not contain us, extended by us.
		// All extensions this round have length `round`; they live in one
		// arena sized up front so the entry slices never move. The
		// extensions are NOT stored in the tree: every path through our
		// own tree excludes us (validPath), so resolution never reads
		// them — storing them was dead weight.
		if cap(n.extArena) < len(fresh)*round {
			n.extArena = make([]model.NodeID, len(fresh)*round)
		}
		arena := n.extArena[:0]
		relay := n.relayBuf[:0]
		for _, en := range fresh {
			if containsNode(en.Path, n.id) {
				continue
			}
			start := len(arena)
			arena = append(arena, en.Path...)
			arena = append(arena, n.id)
			ext := arena[start:len(arena):len(arena)]
			relay = append(relay, OralEntry{Path: ext, Value: en.Value})
		}
		n.relayBuf = relay
		if len(relay) == 0 {
			return nil
		}
		n.entries.Add(int64(len(relay) * (n.cfg.N - 1)))
		return n.broadcast(relay)
	}
	return nil
}

// ingestSerial is the relay-round ingest loop: decode, validate, store,
// collect fresh entries, in arrival order.
func (n *EIGNode) ingestSerial(round int, received []model.Message, fresh []OralEntry) []OralEntry {
	for _, m := range received {
		if m.Kind != model.KindOral {
			continue // not a protocol message; OM ignores it
		}
		entries, err := unmarshalOralEntries(m.Payload)
		if err != nil {
			continue // malformed: ignore, the majority vote absorbs it
		}
		for _, en := range entries {
			if !n.validPath(en.Path, round-1, m.From) {
				continue
			}
			if !n.storePath(en.Path, en.Value) {
				continue // first report wins; duplicates are faulty noise
			}
			fresh = append(fresh, en)
		}
	}
	return fresh
}

// ingestFinal ingests the resolve round's inbox with the streaming
// decoder: every entry goes straight into its tree slot, nothing is
// collected for relay. The tree state is byte-identical to the
// []OralEntry-building ingest (differential-tested).
func (n *EIGNode) ingestFinal(round int, received []model.Message) {
	for _, m := range received {
		if m.Kind != model.KindOral {
			continue
		}
		n.pathScratch = n.storeOralEntries(m.Payload, round, m.From, n.pathScratch)
	}
}

// storeOralEntries decodes one oral payload directly into the tree. The
// first pass validates the full structure (a malformed payload stores
// nothing, exactly like the unmarshalOralEntries path); the second pass
// streams entries through a reused path buffer and copies only the
// values that actually land in a fresh slot into one arena. pathBuf is
// caller-owned scratch, returned (possibly grown) for reuse.
func (n *EIGNode) storeOralEntries(data []byte, round int, from model.NodeID, pathBuf []model.NodeID) []model.NodeID {
	d := sig.NewDecoder(data)
	count := d.Int()
	if d.Err() != nil || count < 0 || count > 1<<22 {
		return pathBuf
	}
	totalVal := 0
	for i := 0; i < count; i++ {
		plen := d.Int()
		if d.Err() != nil || plen < 1 || plen > 1<<10 {
			return pathBuf
		}
		for j := 0; j < plen; j++ {
			d.Int()
		}
		totalVal += len(d.Bytes())
	}
	if d.Finish() != nil {
		return pathBuf
	}
	// Sized to hold every value, so stored subslices never move when later
	// values append behind them.
	valArena := make([]byte, 0, totalVal)
	d.Reset(data)
	d.Int() // count, validated above
	for i := 0; i < count; i++ {
		plen := d.Int()
		if cap(pathBuf) < plen {
			pathBuf = make([]model.NodeID, plen)
		}
		path := pathBuf[:plen]
		for j := range path {
			path[j] = model.NodeID(d.Int())
		}
		v := d.Bytes()
		if !n.validPath(path, round-1, from) {
			continue
		}
		start := len(valArena)
		valArena = append(valArena, v...)
		if !n.storePath(path, valArena[start:len(valArena):len(valArena)]) {
			valArena = valArena[:start] // duplicate: reclaim the copy
		}
	}
	return pathBuf
}

// validPath checks that a reported path is structurally possible for this
// round: correct length, starts at the sender, distinct nodes, and its
// last element is the immediate sender (a node can only report paths it
// itself extended). These checks need no cryptography — they are the only
// defense oral messages afford.
func (n *EIGNode) validPath(path []model.NodeID, sentRound int, from model.NodeID) bool {
	if len(path) != sentRound {
		return false
	}
	if path[0] != Sender {
		return false
	}
	if path[len(path)-1] != from {
		return false
	}
	// Paths are at most t+1 long, so the quadratic distinctness scan beats
	// a set allocation.
	for i, p := range path {
		if !p.Valid(n.cfg.N) || p == n.id {
			return false
		}
		for j := 0; j < i; j++ {
			if path[j] == p {
				return false
			}
		}
	}
	return true
}

// broadcast sends the batched entries to every other node. The returned
// slice is reused next round; the engine consumes it before then.
func (n *EIGNode) broadcast(entries []OralEntry) []model.Message {
	payload := MarshalOralEntries(entries)
	if cap(n.msgBuf) < n.cfg.N-1 {
		n.msgBuf = make([]model.Message, 0, n.cfg.N-1)
	}
	out := model.AppendBroadcast(n.msgBuf[:0], n.cfg.N, n.id, model.KindOral, payload)
	n.msgBuf = out
	return out
}

// resolve computes the node's decision by the classical EIG bottom-up
// majority rule. The sender is special: as in Lamport's formulation, the
// commander uses its own value (validity is then immediate), and the
// lieutenants resolve their trees (every path through the tree excludes
// the resolver itself, so the sender could not resolve the root anyway).
func (n *EIGNode) resolve() {
	if n.id == Sender && n.value != nil {
		n.decision.Value = append([]byte(nil), n.value...)
		return
	}
	n.decision.Value = append([]byte(nil), n.resolveTree()...)
}

// resolveTree runs the bottom-up majority resolution iteratively over
// the rank-indexed levels. The slots of level d are already in
// generation order and every vertex of level d has exactly n-d-2
// children, laid out contiguously in level d+1, so parent→child indexing
// is pure arithmetic — no keys, no hashing, no recursion.
func (n *EIGNode) resolveTree() []byte {
	t, size := n.cfg.T, n.cfg.N
	// Leaves: the stored value or the default.
	leaf := &n.levels[t]
	vals := make([][]byte, leaf.count)
	for i := range vals {
		if leaf.occ[i] {
			vals[i] = leaf.val[i]
		} else {
			vals[i] = DefaultValue
		}
	}
	// Inner levels: each vertex's votes are its own stored value for the
	// path (what it received directly) plus its children's resolutions.
	votes := make([][]byte, 0, size)
	for d := t - 1; d >= 0; d-- {
		lv := &n.levels[d]
		perVertex := size - d - 2
		up := make([][]byte, lv.count)
		for i := 0; i < lv.count; i++ {
			votes = votes[:0]
			if lv.occ[i] {
				votes = append(votes, lv.val[i])
			} else {
				votes = append(votes, DefaultValue)
			}
			votes = append(votes, vals[i*perVertex:(i+1)*perVertex]...)
			up[i] = majority(votes)
		}
		vals = up
	}
	return vals[0]
}

// majority returns the strict-majority value of votes, or DefaultValue if
// none exists. Boyer–Moore candidate selection plus one confirmation pass:
// no counting map, no allocation, and the same result as exhaustive
// counting (a strict majority is unique when it exists).
func majority(votes [][]byte) []byte {
	var cand []byte
	count := 0
	for _, v := range votes {
		switch {
		case count == 0:
			cand, count = v, 1
		case bytes.Equal(cand, v):
			count++
		default:
			count--
		}
	}
	if count > 0 {
		total := 0
		for _, v := range votes {
			if bytes.Equal(cand, v) {
				total++
			}
		}
		if 2*total > len(votes) {
			return cand
		}
	}
	return DefaultValue
}

func containsNode(path []model.NodeID, id model.NodeID) bool {
	for _, p := range path {
		if p == id {
			return true
		}
	}
	return false
}

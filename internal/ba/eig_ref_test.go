package ba

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/sig"
)

// Reference oracles for OM(t). Everything here is written for
// obviousness, not speed — a batch decoder that builds every entry, a
// tree keyed by the printed path holding the reported bytes, a recursive
// resolve that counts votes in a map — and shares no code with eig.go
// except the wire encoder. The differential tests and the fuzz target
// compare the streaming, interning node against it.

// unmarshalOralEntries decodes a batched payload into its entries, or
// fails on a truncated payload, trailing bytes, or an implausible count
// or path length.
func unmarshalOralEntries(data []byte) ([]OralEntry, error) {
	d := sig.NewDecoder(data)
	count := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if count < 0 || count > 1<<22 {
		return nil, fmt.Errorf("ba: implausible entry count %d", count)
	}
	var out []OralEntry
	for i := 0; i < count; i++ {
		plen := d.Int()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if plen < 1 || plen > 1<<10 {
			return nil, fmt.Errorf("ba: implausible path length %d", plen)
		}
		path := make([]model.NodeID, plen)
		for j := range path {
			path[j] = model.NodeID(d.Int())
		}
		out = append(out, OralEntry{Path: path, Value: bytes.Clone(d.Bytes())})
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// refEIG is the reference OM(t) participant, sender included.
type refEIG struct {
	cfg      model.Config
	id       model.NodeID
	value    []byte            // the sender's initial value
	tree     map[string][]byte // printed path -> first value reported for it
	decision []byte
}

func newRefEIG(cfg model.Config, id model.NodeID, value []byte) *refEIG {
	return &refEIG{cfg: cfg, id: id, value: value, tree: make(map[string][]byte)}
}

func refKey(path []model.NodeID) string { return fmt.Sprint(path) }

// valid is the structural check oral messages afford: the round's
// length, sender-rooted, reported by its last hop, distinct in-range
// nodes, none of them the resolver.
func (r *refEIG) valid(path []model.NodeID, length int, from model.NodeID) bool {
	if len(path) != length || path[0] != Sender || path[len(path)-1] != from {
		return false
	}
	seen := make(map[model.NodeID]bool)
	for _, p := range path {
		if p < 0 || int(p) >= r.cfg.N || p == r.id || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// Step implements sim.Process: decode every batch, store first reports,
// relay them extended by this node, resolve in the last round.
func (r *refEIG) Step(round int, received []model.Message) []model.Message {
	var relay []OralEntry
	for _, m := range received {
		if m.Kind != model.KindOral {
			continue
		}
		entries, err := unmarshalOralEntries(m.Payload)
		if err != nil {
			continue
		}
		for _, en := range entries {
			if !r.valid(en.Path, round-1, m.From) {
				continue
			}
			if _, dup := r.tree[refKey(en.Path)]; dup {
				continue
			}
			r.tree[refKey(en.Path)] = en.Value
			relay = append(relay, OralEntry{Path: model.CloneAppend(en.Path, r.id), Value: en.Value})
		}
	}
	switch {
	case round == EIGEngineRounds(r.cfg.T):
		if r.decision = r.value; r.id != Sender {
			r.decision = r.resolve([]model.NodeID{Sender})
		}
		return nil
	case round == 1 && r.id == Sender:
		relay = []OralEntry{{Path: []model.NodeID{Sender}, Value: r.value}}
	case round < 2 || round > r.cfg.T+1 || len(relay) == 0:
		return nil
	}
	return model.AppendBroadcast(nil, r.cfg.N, r.id, model.KindOral, MarshalOralEntries(relay))
}

// resolve is the classical recursion: a leaf is its stored value or the
// default; an inner vertex is the majority of its own stored value and
// its children's resolutions.
func (r *refEIG) resolve(path []model.NodeID) []byte {
	own, ok := r.tree[refKey(path)]
	if !ok {
		own = DefaultValue
	}
	if len(path) == r.cfg.T+1 {
		return own
	}
	votes := [][]byte{own}
	for q := 0; q < r.cfg.N; q++ {
		if qid := model.NodeID(q); qid != r.id && !slices.Contains(path, qid) {
			votes = append(votes, r.resolve(model.CloneAppend(path, qid)))
		}
	}
	return slowMajority(votes)
}

// slowMajority is the counting-map strict majority (unique if it exists).
func slowMajority(votes [][]byte) []byte {
	counts := make(map[string]int, len(votes))
	for _, v := range votes {
		counts[string(v)]++
	}
	for k, c := range counts {
		if 2*c > len(votes) {
			return []byte(k)
		}
	}
	return DefaultValue
}

// enumPaths returns every sender-rooted path of the given length with
// distinct nodes, none equal to skip, children in ascending node order.
func enumPaths(cfg model.Config, skip model.NodeID, length int) [][]model.NodeID {
	var out [][]model.NodeID
	var walk func(path []model.NodeID)
	walk = func(path []model.NodeID) {
		if len(path) == length {
			out = append(out, model.CloneAppend(path))
			return
		}
		for q := 0; q < cfg.N; q++ {
			qid := model.NodeID(q)
			if qid == skip || slices.Contains(path, qid) {
				continue
			}
			walk(append(path, qid))
		}
	}
	walk([]model.NodeID{Sender})
	return out
}

// rankOf maps a tree path to its slot index within level len(path)-1:
// the path's mixed-radix position in resolveTree's enumeration order,
// hop i contributing its ID less the excluded IDs (path prefix and
// resolver) below it. It is the rank half of eig.go's pathRank as it
// stood before the two were fused, kept as the oracle. Precondition: the
// path is valid in validPath's sense, otherwise the arithmetic may alias
// a valid path's slot.
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

// validPath is the validity half of pathRank, likewise kept as it stood:
// the path starts at the sender, its nodes are distinct, in range and not
// the resolver, and its last element is from.
func (n *EIGNode) validPath(path []model.NodeID, from model.NodeID) bool {
	if path[0] != Sender || path[len(path)-1] != from {
		return false
	}
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

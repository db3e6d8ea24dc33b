package ba

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
)

// Differential tests for the EIG fast paths. The slowXxx functions are
// the pre-optimization reference implementations, kept verbatim as
// oracles: byte-packed keys must distinguish exactly the paths the old
// string keys distinguished, and the iterative bottom-up resolve must
// decide exactly what the old recursion decided.

// slowPathKey is the original dotted-decimal path key. Oracle only.
func slowPathKey(path []model.NodeID) string {
	parts := make([]string, len(path))
	for i, p := range path {
		parts[i] = fmt.Sprintf("%d", int(p))
	}
	return strings.Join(parts, ".")
}

// slowMajority is the original counting-map majority. Oracle only.
func slowMajority(votes [][]byte) []byte {
	counts := make(map[string]int, len(votes))
	for _, v := range votes {
		counts[string(v)]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if 2*counts[k] > len(votes) {
			return []byte(k)
		}
	}
	return DefaultValue
}

// slowResolvePath is the original recursive bottom-up resolution. Oracle
// only.
func slowResolvePath(n *EIGNode, path []model.NodeID) []byte {
	stored, ok := n.loadPath(path)
	if len(path) == n.cfg.T+1 {
		if !ok {
			return DefaultValue
		}
		return stored
	}
	var votes [][]byte
	for q := 0; q < n.cfg.N; q++ {
		qid := model.NodeID(q)
		if containsNode(path, qid) {
			continue
		}
		if qid == n.id {
			if ok {
				votes = append(votes, stored)
			} else {
				votes = append(votes, DefaultValue)
			}
			continue
		}
		votes = append(votes, slowResolvePath(n, model.CloneAppend(path, qid)))
	}
	return slowMajority(votes)
}

// enumPaths appends every sender-rooted path of the given length with
// distinct nodes, none equal to skip.
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
			if qid == skip || containsNode(path, qid) {
				continue
			}
			walk(append(path, qid))
		}
	}
	walk([]model.NodeID{Sender})
	return out
}

func TestPathKeyMatchesSlowOracle(t *testing.T) {
	// The packed key must distinguish exactly the paths the old string
	// key distinguished: equal keys iff equal oracle keys, over every
	// path of length <= 3 drawn from 6 nodes.
	var paths [][]model.NodeID
	cfg := model.Config{N: 6, T: 2}
	for l := 1; l <= 3; l++ {
		paths = append(paths, enumPaths(cfg, model.NodeID(5), l)...)
	}
	keys := make([]string, len(paths))
	slow := make([]string, len(paths))
	for i, p := range paths {
		keys[i] = pathKey(p)
		slow[i] = slowPathKey(p)
		if got := appendPathKey(nil, p); string(got) != keys[i] {
			t.Fatalf("appendPathKey diverges from pathKey for %v", p)
		}
	}
	for i := range paths {
		for j := range paths {
			if (keys[i] == keys[j]) != (slow[i] == slow[j]) {
				t.Fatalf("key collision structure differs for %v vs %v", paths[i], paths[j])
			}
		}
	}
}

func TestMajorityMatchesSlowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := [][]byte{[]byte("a"), []byte("b"), []byte("c"), DefaultValue}
	for trial := 0; trial < 500; trial++ {
		votes := make([][]byte, 1+rng.Intn(9))
		for i := range votes {
			votes[i] = universe[rng.Intn(len(universe))]
		}
		got, want := majority(votes), slowMajority(votes)
		if !bytes.Equal(got, want) {
			t.Fatalf("majority(%q) = %q, oracle says %q", votes, got, want)
		}
	}
}

// TestResolveTreeMatchesRecursiveOracle fills EIG trees with randomized
// (partially missing, partially conflicting) reports — the state a run
// with faulty relays leaves behind — and checks the iterative resolve
// decides exactly what the recursive oracle decides.
func TestResolveTreeMatchesRecursiveOracle(t *testing.T) {
	values := [][]byte{[]byte("v"), []byte("w"), DefaultValue}
	for _, tc := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}} {
		cfg := model.Config{N: tc.n, T: tc.t}
		rng := rand.New(rand.NewSource(int64(100*tc.n + tc.t)))
		for trial := 0; trial < 25; trial++ {
			resolver := model.NodeID(1 + rng.Intn(tc.n-1)) // any lieutenant
			node, err := NewEIGNode(cfg, resolver)
			if err != nil {
				t.Fatalf("NewEIGNode: %v", err)
			}
			for l := 1; l <= tc.t+1; l++ {
				for _, p := range enumPaths(cfg, resolver, l) {
					if rng.Float64() < 0.75 {
						if !node.storePath(p, values[rng.Intn(len(values))]) {
							t.Fatalf("storePath rejected fresh valid path %v", p)
						}
					}
				}
			}
			got := node.resolveTree()
			want := slowResolvePath(node, []model.NodeID{Sender})
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d t=%d trial %d: resolveTree = %q, oracle = %q",
					tc.n, tc.t, trial, got, want)
			}
		}
	}
}

// TestPathKeyAllocs pins the zero-allocation property of the packed-key
// builder with a reused buffer (the form every hot loop uses).
func TestPathKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	path := []model.NodeID{0, 3, 1, 2}
	buf := make([]byte, 0, 16)
	tree := map[string][]byte{pathKey(path): []byte("v")}
	var hit bool
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendPathKey(buf[:0], path)
		_, hit = tree[string(buf)]
	})
	if !hit {
		t.Fatal("lookup missed")
	}
	if allocs != 0 {
		t.Errorf("packed-key build+lookup allocates %.1f times per op, want 0", allocs)
	}
}

// makeOralPayload builds a marshaled batch of k entries with paths of
// the given length, shaped like a mid-run relay batch.
func makeOralPayload(k, plen int) []byte {
	entries := make([]OralEntry, k)
	for i := range entries {
		path := make([]model.NodeID, plen)
		for j := range path {
			path[j] = model.NodeID((i + j) % 16)
		}
		entries[i] = OralEntry{Path: path, Value: []byte(fmt.Sprintf("value-%d", i))}
	}
	return MarshalOralEntries(entries)
}

func TestUnmarshalOralEntriesRoundTrip(t *testing.T) {
	in := []OralEntry{
		{Path: []model.NodeID{0}, Value: []byte("root")},
		{Path: []model.NodeID{0, 3}, Value: []byte{}},
		{Path: []model.NodeID{0, 3, 7}, Value: []byte("deep")},
	}
	got, err := unmarshalOralEntries(MarshalOralEntries(in))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("got %d entries, want %d", len(got), len(in))
	}
	for i := range in {
		if !reflect.DeepEqual(got[i].Path, in[i].Path) {
			t.Errorf("entry %d path = %v, want %v", i, got[i].Path, in[i].Path)
		}
		if !bytes.Equal(got[i].Value, in[i].Value) {
			t.Errorf("entry %d value = %q, want %q", i, got[i].Value, in[i].Value)
		}
	}
	// The arena-backed subslices must be capacity-clipped: appending to
	// one entry's path or value must not clobber its neighbor.
	got[0].Path = append(got[0].Path, 99)
	got[0].Value = append(got[0].Value, 'X')
	if got[1].Path[0] != 0 || !bytes.Equal(got[2].Value, []byte("deep")) {
		t.Error("appending to one entry corrupted a neighbor: arena slices not capacity-clipped")
	}
}

// TestUnmarshalOralEntriesAllocs pins the arena decode: a k-entry batch
// costs a constant number of allocations (entry slice, path arena, value
// arena), not O(k) — the per-entry path allocation was a ROADMAP hot spot.
func TestUnmarshalOralEntriesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, k := range []int{1, 16, 256} {
		payload := makeOralPayload(k, 4)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := unmarshalOralEntries(payload); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
		})
		if allocs > 4 {
			t.Errorf("k=%d: unmarshalOralEntries allocates %.1f times per op, want <= 4", k, allocs)
		}
	}
}

// TestEIGMaxNodesEnforced pins the constructor bound that keeps the
// one-byte-per-node key packing injective.
func TestEIGMaxNodesEnforced(t *testing.T) {
	if _, err := NewEIGNode(model.Config{N: 300, T: 1}, 0, WithEIGValue([]byte("v"))); err == nil {
		t.Error("NewEIGNode accepted n=300; packed path keys need n <= 256")
	}
}

// pathKey canonically encodes a path as a byte-packed string: one byte
// per node ID, injective because NewEIGNode bounds n at maxEIGNodes.
// The tree itself is rank-indexed and no longer keyed by strings; the
// packed key remains for diagnostics and the key-structure tests.
func pathKey(path []model.NodeID) string {
	return string(appendPathKey(nil, path))
}

// appendPathKey appends the packed key of path to dst. Hot paths call it
// with a reused buffer and look the result up via the zero-copy
// map[string(buf)] form.
func appendPathKey(dst []byte, path []model.NodeID) []byte {
	for _, p := range path {
		dst = append(dst, byte(p))
	}
	return dst
}

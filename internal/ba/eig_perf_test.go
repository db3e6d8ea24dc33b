package ba

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
)

// Differential tests for the integer resolve: the Boyer–Moore majority
// over value ids must pick what the counting map picks over the values,
// and the iterative bottom-up resolve must decide exactly what the
// recursion decides (oracles in eig_ref_test.go).

func TestMajorityMatchesSlowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Indexed by id: an empty slot (0) votes for the default (defaultID).
	universe := [][]byte{DefaultValue, DefaultValue, []byte("a"), []byte("b"), []byte("c")}
	for trial := 0; trial < 500; trial++ {
		ids := make([]uint32, 1+rng.Intn(9))
		votes := make([][]byte, len(ids))
		for i := range ids {
			ids[i] = uint32(rng.Intn(len(universe)))
			votes[i] = universe[ids[i]]
		}
		got, want := majority(ids[0], ids[1:]), slowMajority(votes)
		if got == 0 || !bytes.Equal(universe[got], want) {
			t.Fatalf("majority(%v) = id %d, oracle says %q", ids, got, want)
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
			ref := newRefEIG(cfg, resolver, nil)
			levels := append(append([][]uint32(nil), node.levels...), make([]uint32, node.levelSize(tc.t)))
			for d, level := range levels {
				for _, p := range enumPaths(cfg, resolver, d+1) {
					if rng.Float64() < 0.75 {
						v := values[rng.Intn(len(values))]
						level[node.rankOf(p)] = node.intern(v)
						ref.tree[refKey(p)] = v
					}
				}
			}
			got := node.vals[node.resolveTree(levels[tc.t])]
			want := ref.resolve([]model.NodeID{Sender})
			if got != string(want) {
				t.Fatalf("n=%d t=%d trial %d: resolveTree = %q, oracle = %q",
					tc.n, tc.t, trial, got, want)
			}
		}
	}
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
}

// TestEIGMaxNodesEnforced pins the constructor's admission bound.
func TestEIGMaxNodesEnforced(t *testing.T) {
	if _, err := NewEIGNode(model.Config{N: 300, T: 1}, 0, WithEIGValue([]byte("v"))); err == nil {
		t.Error("NewEIGNode accepted n=300; the admission bound is n <= 256")
	}
}

// TestEIGTreeSizeBound pins the other admission bound: a tree whose leaf
// level passes maxEIGLeaf slots is refused with an error before a level
// is allocated — at n=256 t=12 the size does not fit an int, and make on
// what it wrapped to was a fatal error no recover contains — while
// everything up to the bound, n=256 t=3 the largest, still constructs.
func TestEIGTreeSizeBound(t *testing.T) {
	for _, tc := range []struct {
		n, t   int
		leaves int // 0: refused
	}{
		{128, 2, 15_750},
		{16, 5, 240_240},
		{256, 3, 16_194_024},
		{256, 4, 0},
		{256, 12, 0},
		{256, 85, 0},
	} {
		cfg := model.Config{N: tc.n, T: tc.t}
		for _, id := range []model.NodeID{Sender, 1} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			node, err := NewEIGNode(cfg, id, WithEIGValue([]byte("v")))
			runtime.ReadMemStats(&after)
			if (err == nil) != (tc.leaves != 0) {
				t.Errorf("NewEIGNode(n=%d t=%d, %v): err = %v, want a tree of %d leaves", tc.n, tc.t, id, err, tc.leaves)
				continue
			}
			if err != nil {
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("NewEIGNode(n=%d t=%d, %v) allocated %d bytes on its way to %v", tc.n, tc.t, id, grew, err)
				}
				continue
			}
			if got := node.levelSize(tc.t); got != tc.leaves {
				t.Errorf("n=%d t=%d: leaf level of %d slots, want %d", tc.n, tc.t, got, tc.leaves)
			}
		}
	}
	if got := (&EIGNode{cfg: model.Config{N: 256, T: 85}}).levelSize(85); got != maxEIGLeaf+1 {
		t.Errorf("levelSize past the bound = %d, want it saturated at %d", got, maxEIGLeaf+1)
	}
}

package ted

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"silvervale/internal/tree"
)

// TestCacheStatsAccounting pins the bookkeeping behind CacheStats: every
// lookup is exactly one hit or one miss, identity short-circuits count as
// hits, unit-cost (b,a) lookups canonicalise onto the (a,b) entry, and
// HitRate/String agree with the raw counters.
func TestCacheStatsAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := NewCache()
	a, b := randTree(r, 30), randTree(r, 35)

	c.Distance(a, b) // miss
	c.Distance(a, b) // hit
	c.Distance(b, a) // hit via symmetric canonicalisation
	c.Distance(a, a.Clone())

	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1: %+v", st.Misses, st)
	}
	if st.Hits != 3 {
		t.Fatalf("hits = %d, want 3 (two memo, one identity): %+v", st.Hits, st)
	}
	if st.Identity != 1 {
		t.Fatalf("identity = %d, want 1: %+v", st.Identity, st)
	}
	// Exactly one of the two orientations is reversed relative to the
	// canonical fingerprint order; it was looked up either once (b,a) or
	// twice (a,b twice).
	if st.Symmetric != 1 && st.Symmetric != 2 {
		t.Fatalf("symmetric = %d, want 1 or 2: %+v", st.Symmetric, st)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1: %+v", st.Entries, st)
	}
	if got, want := st.HitRate(), 3.0/4.0; got != want {
		t.Fatalf("hit rate = %v, want %v", got, want)
	}
	// The single miss flattened both trees for the first time.
	if st.FlatMisses != 2 || st.FlatHits != 0 || st.Flats != 2 {
		t.Fatalf("flat memo = %d hits / %d misses / %d stored, want 0/2/2: %+v",
			st.FlatHits, st.FlatMisses, st.Flats, st)
	}
	// The miss ran every keyroot pair of the mirrored flats once, so its
	// work is the right-path product R(a)·R(b).
	if want := rightPathCost(a) * rightPathCost(b); st.KeyrootCells != want {
		t.Fatalf("keyroot cells = %d, want R(a)·R(b) = %d", st.KeyrootCells, want)
	}
	s := st.String()
	for _, frag := range []string{"3 hits", "(1 identity)", "1 misses", "hit rate 75.0%",
		fmt.Sprintf("%d keyroot cells", st.KeyrootCells)} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Errorf("zero-value hit rate should be 0")
	}

	// A third tree against a memoised one: a is served from the flat memo,
	// the newcomer is flattened fresh.
	d := randTree(r, 20)
	c.Distance(a, d)
	st = c.Stats()
	if st.FlatHits != 1 || st.FlatMisses != 3 {
		t.Fatalf("flat memo after third tree = %d hits / %d misses, want 1/3: %+v",
			st.FlatHits, st.FlatMisses, st)
	}
	if got, want := st.FlatHitRate(), 1.0/4.0; got != want {
		t.Fatalf("flat hit rate = %v, want %v", got, want)
	}

	// A lone node against a is answered by the single-node bound gate.
	c.Distance(a, tree.New("lone"))
	if st = c.Stats(); st.BoundPruned != 1 {
		t.Fatalf("bound pruned = %d, want 1: %+v", st.BoundPruned, st)
	}
	for _, frag := range []string{"1 bound-pruned", "flat memo"} {
		if s := st.String(); !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
	if (CacheStats{}).FlatHitRate() != 0 {
		t.Errorf("zero-value flat hit rate should be 0")
	}
}

// rightPathCost is R(t): the summed subtree sizes over the root and every
// node with a right sibling — the keyroots of t's mirror image.
func rightPathCost(t *tree.Node) uint64 {
	var walk func(n *tree.Node, keyroot bool) (size, cost uint64)
	walk = func(n *tree.Node, keyroot bool) (uint64, uint64) {
		size, cost := uint64(1), uint64(0)
		for k, c := range n.Children {
			s, sc := walk(c, k < len(n.Children)-1)
			size += s
			cost += sc
		}
		if keyroot {
			cost += size
		}
		return size, cost
	}
	_, cost := walk(t, true)
	return cost
}

package ted

// Property-based tests for the metric axioms of tree edit distance. TED
// under unit costs is a true metric on ordered labelled trees (Zhang &
// Shasha; Bille's survey): identity of indiscernibles, symmetry, and the
// triangle inequality all hold. The randomized suites below exercise the
// Zhang–Shasha implementation against each axiom and pin the cached path
// to the uncached one, so any future optimisation of the inner loops has
// the whole axiom system as a tripwire.

import (
	"math/rand"
	"runtime"
	"testing"

	"silvervale/internal/tree"
)

// randTree builds a random tree with n nodes drawn from a small label
// alphabet: every new node attaches under a uniformly chosen existing
// node, which produces varied shapes (chains, bushes, mixtures).
func randTree(r *rand.Rand, n int) *tree.Node {
	labels := []string{"A", "B", "C", "D", "E"}
	root := tree.New(labels[r.Intn(len(labels))])
	nodes := []*tree.Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[r.Intn(len(nodes))]
		child := tree.New(labels[r.Intn(len(labels))])
		parent.Add(child)
		nodes = append(nodes, child)
	}
	return root
}

func TestAxiomIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		tr := randTree(r, 1+r.Intn(60))
		if d := Distance(tr, tr); d != 0 {
			t.Fatalf("d(t,t) = %d, want 0 for tree %s", d, tr)
		}
		// identity must hold under non-unit costs too: the empty edit
		// script costs nothing regardless of per-operation weights
		c := Costs{Insert: 1 + r.Intn(3), Delete: 1 + r.Intn(3), Rename: 1 + r.Intn(3)}
		if d := DistanceWithCosts(tr, tr.Clone(), c); d != 0 {
			t.Fatalf("d(t,clone(t)) = %d under costs %+v, want 0", d, c)
		}
	}
}

func TestAxiomPositivity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		a := randTree(r, 1+r.Intn(40))
		b := randTree(r, 1+r.Intn(40))
		d := Distance(a, b)
		if d < 0 {
			t.Fatalf("negative distance %d", d)
		}
		if d == 0 && !tree.Equal(a, b) {
			t.Fatalf("d = 0 for distinct trees\na=%s\nb=%s", a, b)
		}
		if d != 0 && tree.Equal(a, b) {
			t.Fatalf("d = %d for equal trees %s", d, a)
		}
	}
}

func TestAxiomSymmetryUnitCosts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		a := randTree(r, 1+r.Intn(50))
		b := randTree(r, 1+r.Intn(50))
		ab, ba := Distance(a, b), Distance(b, a)
		if ab != ba {
			t.Fatalf("asymmetric: d(a,b)=%d d(b,a)=%d\na=%s\nb=%s", ab, ba, a, b)
		}
	}
	// symmetry also holds whenever Insert == Delete (reversing the edit
	// script swaps inserts and deletes and keeps renames)
	for i := 0; i < 30; i++ {
		a := randTree(r, 1+r.Intn(40))
		b := randTree(r, 1+r.Intn(40))
		c := Costs{Insert: 2, Delete: 2, Rename: 3}
		ab := DistanceWithCosts(a, b, c)
		ba := DistanceWithCosts(b, a, c)
		if ab != ba {
			t.Fatalf("asymmetric under symmetric costs: %d vs %d", ab, ba)
		}
	}
}

func TestAxiomTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		a := randTree(r, 1+r.Intn(35))
		b := randTree(r, 1+r.Intn(35))
		c := randTree(r, 1+r.Intn(35))
		ab, bc, ac := Distance(a, b), Distance(b, c), Distance(a, c)
		if ac > ab+bc {
			t.Fatalf("triangle violated: d(a,c)=%d > d(a,b)+d(b,c)=%d+%d\na=%s\nb=%s\nc=%s",
				ac, ab, bc, a, b, c)
		}
	}
}

// TestCachedAgreesWithUncached pins Cache.Distance to Distance on
// randomized trees, including repeated queries (memo hits), swapped
// argument order (canonicalised symmetric keys), and non-unit costs.
func TestCachedAgreesWithUncached(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := NewCache()
	costs := []Costs{
		UnitCosts(),
		{Insert: 2, Delete: 1, Rename: 1},
		{Insert: 1, Delete: 2, Rename: 3},
	}
	var trees []*tree.Node
	for i := 0; i < 20; i++ {
		trees = append(trees, randTree(r, 1+r.Intn(45)))
	}
	for round := 0; round < 2; round++ { // second round answers from the memo
		for _, a := range trees {
			for _, b := range trees {
				for _, cs := range costs {
					want := DistanceWithCosts(a, b, cs)
					if got := c.DistanceWithCosts(a, b, cs); got != want {
						t.Fatalf("round %d costs %+v: cached %d != uncached %d\na=%s\nb=%s",
							round, cs, got, want, a, b)
					}
				}
				wantApprox := ApproxDistance(a, b)
				if got := c.ApproxDistance(a, b); got != wantApprox {
					t.Fatalf("cached approx %v != uncached %v", got, wantApprox)
				}
			}
		}
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("implausible cache stats after mixed workload: %+v", st)
	}
}

func TestCacheIdentityShortCircuit(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	c := NewCache()
	tr := randTree(r, 80)
	clone := tr.Clone()
	if d := c.Distance(tr, clone); d != 0 {
		t.Fatalf("d(t, clone) = %d, want 0", d)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("identity pair should short-circuit without a miss: %+v", st)
	}
	if st.Entries != 0 {
		t.Fatalf("identity shortcut should not populate the memo: %+v", st)
	}
}

// TestUncachedIdentityAllocatesNothing: the package-level path answers
// an identical pair before flattening, as the cache does, so a
// self-comparison of a large tree (core.SelfCheck during ingest) costs an
// O(n) walk, not flats plus two n×n DP tables (~33 MB here).
func TestUncachedIdentityAllocatesNothing(t *testing.T) {
	chain := tree.New("A")
	for cur, i := chain, 1; i < 2048; i++ {
		next := tree.New([]string{"A", "B", "C"}[i%3])
		cur.Add(next)
		cur = next
	}
	clone := chain.Clone()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dSame := DistanceWithCosts(chain, chain, Costs{Insert: 2, Delete: 1, Rename: 3})
	dClone := Distance(chain, clone)
	runtime.ReadMemStats(&after)
	if dSame != 0 || dClone != 0 {
		t.Fatalf("identity distances = %d, %d, want 0, 0", dSame, dClone)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("identity pairs allocated %d bytes, want no DP tables", got)
	}
}

func TestCacheNilTrees(t *testing.T) {
	c := NewCache()
	tr := tree.New("A", tree.New("B"))
	cases := []struct {
		a, b *tree.Node
	}{{nil, nil}, {nil, tr}, {tr, nil}}
	for _, tc := range cases {
		want := Distance(tc.a, tc.b)
		if got := c.Distance(tc.a, tc.b); got != want {
			t.Fatalf("nil handling: cached %d != uncached %d", got, want)
		}
	}
}

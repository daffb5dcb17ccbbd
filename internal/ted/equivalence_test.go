package ted

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"silvervale/internal/tree"
)

// This file pins the optimised TED pipeline (shared interner, per-tree
// flat memos, pooled DP scratch, bound gates) to the seed implementation:
// refDistanceWithCosts below is a verbatim copy of the pre-optimisation
// code — per-call interner, per-call flattening with a map-backed keyroot
// pass and insertion sort, and freshly allocated DP matrices. Every
// distance the optimised path produces must match it exactly, for every
// tree shape and cost model.

type refInterner struct{ ids map[string]int }

func newRefInterner() *refInterner { return &refInterner{ids: make(map[string]int)} }

func (in *refInterner) id(label string) int {
	if id, ok := in.ids[label]; ok {
		return id
	}
	id := len(in.ids)
	in.ids[label] = id
	return id
}

type refFlat struct {
	labels []int
	lmld   []int
	kr     []int
}

func refFlatten(t *tree.Node, in *refInterner) refFlat {
	n := t.Size()
	f := refFlat{labels: make([]int, n), lmld: make([]int, n)}
	idx := 0
	var visit func(node *tree.Node) int
	visit = func(node *tree.Node) int {
		first := -1
		for _, c := range node.Children {
			ci := visit(c)
			if first < 0 {
				first = f.lmld[ci]
			}
		}
		i := idx
		idx++
		f.labels[i] = in.id(node.Label)
		if first < 0 {
			f.lmld[i] = i
		} else {
			f.lmld[i] = first
		}
		return i
	}
	visit(t)
	seen := make(map[int]int)
	for i := 0; i < n; i++ {
		seen[f.lmld[i]] = i
	}
	for _, i := range seen {
		f.kr = append(f.kr, i)
	}
	refSortInts(f.kr)
	return f
}

func refSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

type refZhangShasha struct {
	a, b refFlat
	c    Costs
	td   [][]int32
	fd   [][]int32
}

func refAlloc2(r, c int) [][]int32 {
	backing := make([]int32, r*c)
	out := make([][]int32, r)
	for i := range out {
		out[i] = backing[i*c : (i+1)*c]
	}
	return out
}

func (z *refZhangShasha) run() int {
	n1 := len(z.a.labels)
	n2 := len(z.b.labels)
	z.td = refAlloc2(n1, n2)
	z.fd = refAlloc2(n1+1, n2+1)
	for _, i := range z.a.kr {
		for _, j := range z.b.kr {
			z.treedist(i, j)
		}
	}
	return int(z.td[n1-1][n2-1])
}

func (z *refZhangShasha) treedist(i, j int) {
	li := z.a.lmld[i]
	lj := z.b.lmld[j]
	ins := int32(z.c.Insert)
	del := int32(z.c.Delete)

	fd := z.fd
	fd[0][0] = 0
	for di := li; di <= i; di++ {
		fd[di-li+1][0] = fd[di-li][0] + del
	}
	row0 := fd[0]
	for dj := lj; dj <= j; dj++ {
		row0[dj-lj+1] = row0[dj-lj] + ins
	}
	aLmld, bLmld := z.a.lmld, z.b.lmld
	aLabels, bLabels := z.a.labels, z.b.labels
	ren := int32(z.c.Rename)
	for di := li; di <= i; di++ {
		prev := fd[di-li]
		cur := fd[di-li+1]
		tdRow := z.td[di]
		aWhole := aLmld[di] == li
		la := aLabels[di]
		fdA := fd[aLmld[di]-li]
		for dj := lj; dj <= j; dj++ {
			cj := dj - lj
			if aWhole && bLmld[dj] == lj {
				r := int32(0)
				if la != bLabels[dj] {
					r = ren
				}
				d := min3(prev[cj+1]+del, cur[cj]+ins, prev[cj]+r)
				cur[cj+1] = d
				tdRow[dj] = d
			} else {
				d := min3(prev[cj+1]+del, cur[cj]+ins,
					fdA[bLmld[dj]-lj]+tdRow[dj])
				cur[cj+1] = d
			}
		}
	}
}

func refDistanceWithCosts(t1, t2 *tree.Node, c Costs) int {
	if t1 == nil && t2 == nil {
		return 0
	}
	if t1 == nil {
		return t2.Size() * c.Insert
	}
	if t2 == nil {
		return t1.Size() * c.Delete
	}
	in := newRefInterner()
	f1 := refFlatten(t1, in)
	f2 := refFlatten(t2, in)
	z := &refZhangShasha{a: f1, b: f2, c: c}
	return z.run()
}

// --- shape generators ---------------------------------------------------------

// combTree is a chain, the maximum-depth shape.
func combTree(r *rand.Rand, n int) *tree.Node {
	labels := []string{"A", "B", "C", "D"}
	root := tree.New(labels[r.Intn(len(labels))])
	cur := root
	for i := 1; i < n; i++ {
		child := tree.New(labels[r.Intn(len(labels))])
		cur.Add(child)
		cur = child
	}
	return root
}

// wideTree is a root with n-1 leaves — the keyroot-count worst case.
func wideTree(r *rand.Rand, n int) *tree.Node {
	labels := []string{"A", "B", "C", "D"}
	root := tree.New(labels[r.Intn(len(labels))])
	for i := 1; i < n; i++ {
		root.Add(tree.New(labels[r.Intn(len(labels))]))
	}
	return root
}

// deepWideTree alternates deep chains with wide fans.
func deepWideTree(r *rand.Rand, n int) *tree.Node {
	labels := []string{"A", "B", "C", "D"}
	root := tree.New(labels[r.Intn(len(labels))])
	cur := root
	remaining := n - 1
	for remaining > 0 {
		fan := 1 + r.Intn(4)
		if fan > remaining {
			fan = remaining
		}
		var last *tree.Node
		for i := 0; i < fan; i++ {
			last = tree.New(labels[r.Intn(len(labels))])
			cur.Add(last)
		}
		cur = last
		remaining -= fan
	}
	return root
}

// sideComb is a comb whose spine runs down the left (left == true) or the
// right edge: every spine node has the next spine node and a leaf as its
// two children. The two sides are mirror shapes, so one of them is the
// left-path keyroot worst case and the other the best, whichever
// direction the flattener takes.
func sideComb(r *rand.Rand, n int, left bool) *tree.Node {
	labels := []string{"A", "B", "C", "D"}
	root := tree.New(labels[r.Intn(len(labels))])
	cur := root
	for n--; n > 0; n-- {
		spine := tree.New(labels[r.Intn(len(labels))])
		if n == 1 {
			cur.Add(spine)
			break
		}
		leaf := tree.New(labels[r.Intn(len(labels))])
		if left {
			cur.Add(spine, leaf)
		} else {
			cur.Add(leaf, spine)
		}
		n--
		cur = spine
	}
	return root
}

func leftComb(r *rand.Rand, n int) *tree.Node  { return sideComb(r, n, true) }
func rightComb(r *rand.Rand, n int) *tree.Node { return sideComb(r, n, false) }

var equivalenceShapes = []struct {
	name string
	gen  func(r *rand.Rand, n int) *tree.Node
}{
	{"random", randTree},
	{"comb", combTree},
	{"wide", wideTree},
	{"deepwide", deepWideTree},
	{"leftcomb", leftComb},
	{"rightcomb", rightComb},
}

// TestEquivalenceWithSeedImplementation drives randomized tree pairs of
// every shape through the optimised uncached path, the cached path, and
// the seed reference, for unit and skewed cost models (Insert != Delete
// included). The seed copy walks left paths and the engine walks the
// mirror image's, so this is also the independent check that mirroring
// keeps every distance exact; left and right combs are the shapes the two
// directions disagree on most. Any divergence in the flattening, flat-
// memo, pooling, or bound-gate logic trips here.
func TestEquivalenceWithSeedImplementation(t *testing.T) {
	costs := []Costs{
		UnitCosts(),
		{Insert: 2, Delete: 1, Rename: 1},
		{Insert: 1, Delete: 3, Rename: 2},
		{Insert: 2, Delete: 2, Rename: 5}, // rename >= insert+delete: disjoint-label gate territory
	}
	cache := NewCache()
	for _, sa := range equivalenceShapes {
		for _, sb := range equivalenceShapes {
			name := fmt.Sprintf("%s-vs-%s", sa.name, sb.name)
			t.Run(name, func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(len(sa.name)*31 + len(sb.name))))
				for i := 0; i < 8; i++ {
					a := sa.gen(r, 1+r.Intn(40))
					b := sb.gen(r, 1+r.Intn(40))
					for _, cs := range costs {
						want := refDistanceWithCosts(a, b, cs)
						if got := DistanceWithCosts(a, b, cs); got != want {
							t.Fatalf("uncached costs %+v: got %d, seed %d\na=%s\nb=%s", cs, got, want, a, b)
						}
						if got := cache.DistanceWithCosts(a, b, cs); got != want {
							t.Fatalf("cached costs %+v: got %d, seed %d\na=%s\nb=%s", cs, got, want, a, b)
						}
						// repeat lookup: flat memo and distance memo warm
						if got := cache.DistanceWithCosts(a, b, cs); got != want {
							t.Fatalf("warm cached costs %+v: got %d, seed %d", cs, got, want)
						}
					}
				}
			})
		}
	}
}

// TestEquivalenceSingleNodeGate pins the single-node bound gate (the one
// exact gate that fires under unit costs) against the seed recursion for
// every label-present/label-absent combination.
func TestEquivalenceSingleNodeGate(t *testing.T) {
	costs := []Costs{
		UnitCosts(),
		{Insert: 3, Delete: 1, Rename: 1},
		{Insert: 1, Delete: 4, Rename: 2},
		{Insert: 1, Delete: 1, Rename: 9}, // rename never worth it
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		big := randTree(r, 1+r.Intn(30))
		single := tree.New([]string{"A", "B", "C", "D", "E", "Z!"}[r.Intn(6)])
		for _, cs := range costs {
			for _, pair := range [][2]*tree.Node{{single, big}, {big, single}, {single, single.Clone()}} {
				want := refDistanceWithCosts(pair[0], pair[1], cs)
				if got := DistanceWithCosts(pair[0], pair[1], cs); got != want {
					t.Fatalf("single-node gate costs %+v: got %d, seed %d\na=%s\nb=%s",
						cs, got, want, pair[0], pair[1])
				}
			}
		}
	}
}

// TestEquivalenceDisjointLabels pins the disjoint-multiset gate: when the
// trees share no labels and rename >= insert+delete, the gate answers
// n1*del + n2*ins; when rename is cheaper it must stay on the DP.
func TestEquivalenceDisjointLabels(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	mk := func(labels []string, n int) *tree.Node {
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
	costs := []Costs{
		UnitCosts(),
		{Insert: 1, Delete: 1, Rename: 2}, // rename == insert+delete: gate may fire
		{Insert: 2, Delete: 1, Rename: 5}, // rename > insert+delete: gate fires
		{Insert: 2, Delete: 3, Rename: 4}, // rename < insert+delete: must run DP
	}
	for i := 0; i < 25; i++ {
		a := mk([]string{"A", "B", "C"}, 1+r.Intn(25))
		b := mk([]string{"X", "Y", "Z"}, 1+r.Intn(25))
		for _, cs := range costs {
			want := refDistanceWithCosts(a, b, cs)
			if got := DistanceWithCosts(a, b, cs); got != want {
				t.Fatalf("disjoint labels costs %+v: got %d, seed %d\na=%s\nb=%s", cs, got, want, a, b)
			}
		}
	}
}

// refPQGramProfile is the seed NewPQGramProfile verbatim: string-slice
// windows hashed through hash/fnv. The optimised version rolls the same
// FNV-1a byte stream inline, so gram values must match exactly — not just
// the distances they induce.
func refPQGramProfile(t *tree.Node) []uint64 {
	if t == nil {
		return nil
	}
	var grams []uint64
	stem := make([]string, pqP)
	for i := range stem {
		stem[i] = "*"
	}
	hashGram := func(stem, base []string) uint64 {
		h := fnv.New64a()
		for _, s := range stem {
			_, _ = h.Write([]byte(s))
			_, _ = h.Write([]byte{0})
		}
		_, _ = h.Write([]byte{1})
		for _, s := range base {
			_, _ = h.Write([]byte(s))
			_, _ = h.Write([]byte{0})
		}
		return h.Sum64()
	}
	var visit func(n *tree.Node, anc []string)
	visit = func(n *tree.Node, anc []string) {
		a := append(append([]string{}, anc[1:]...), n.Label)
		base := make([]string, pqQ)
		for i := range base {
			base[i] = "*"
		}
		if len(n.Children) == 0 {
			grams = append(grams, hashGram(a, base))
			return
		}
		win := make([]string, 0, pqQ)
		for i := 0; i < pqQ-1; i++ {
			win = append(win, "*")
		}
		kids := n.Children
		for i := 0; i < len(kids)+pqQ-1; i++ {
			if i < len(kids) {
				win = append(win, kids[i].Label)
			} else {
				win = append(win, "*")
			}
			if len(win) > pqQ {
				win = win[1:]
			}
			if len(win) == pqQ {
				grams = append(grams, hashGram(a, win))
			}
		}
		for _, c := range kids {
			visit(c, a)
		}
	}
	visit(t, stem)
	sort.Slice(grams, func(i, j int) bool { return grams[i] < grams[j] })
	return grams
}

// TestPQGramProfileMatchesSeed pins the rolled-hash profile builder to the
// seed's gram values across every shape generator.
func TestPQGramProfileMatchesSeed(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, s := range equivalenceShapes {
		for i := 0; i < 6; i++ {
			tr := s.gen(r, 1+r.Intn(60))
			want := refPQGramProfile(tr)
			got := NewPQGramProfile(tr).grams
			if len(got) != len(want) {
				t.Fatalf("%s: gram count %d, seed %d", s.name, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("%s: gram[%d] = %#x, seed %#x", s.name, k, got[k], want[k])
				}
			}
		}
	}
}

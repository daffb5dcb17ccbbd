package tree_test

// Fingerprint must be a faithful content address: equal exactly when the
// trees are structurally equal (labels and shape), independent of source
// positions and of node identity. The fuzz target drives that equivalence
// over mutated s-expression pairs, seeded with real semantic trees from
// the generated mini-app corpus.

import (
	"math/rand"
	"sort"
	"testing"

	"silvervale/internal/corpus"
	"silvervale/internal/minic"
	"silvervale/internal/srcloc"
	"silvervale/internal/tree"
)

func TestFingerprintEqualTrees(t *testing.T) {
	a, err := tree.ParseSexpr("(f (a b) (c (d) e))")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != a.Clone().Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	b, err := tree.ParseSexpr("(f (a b) (c (d) e))")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("independently parsed equal trees fingerprint differently")
	}
}

func TestFingerprintIgnoresPositions(t *testing.T) {
	a := tree.New("f", tree.New("x"), tree.New("y"))
	b := tree.NewAt("f", srcloc.Pos{File: "other.cpp", Line: 42},
		tree.NewAt("x", srcloc.Pos{File: "other.cpp", Line: 43}),
		tree.NewAt("y", srcloc.Pos{File: "third.cpp", Line: 1}))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on source positions")
	}
}

// TestFingerprintShapeSensitivity checks the classic ambiguity traps: the
// same label multiset arranged as different shapes, and label boundaries
// that concatenate identically.
func TestFingerprintShapeSensitivity(t *testing.T) {
	distinct := []string{
		"(a (b c))",     // c under b
		"(a b c)",       // b, c as siblings
		"(a (b (c d)))", // chain pushing d one level down
		"(a (c b))",     // order swapped
		"(ab c)",        // label boundary shifted
		"(a bc)",        //
		"(a (b c) d)",   //
		"(a (b c d))",   //
	}
	seen := map[tree.Fingerprint]string{}
	for _, s := range distinct {
		n, err := tree.ParseSexpr(s)
		if err != nil {
			t.Fatal(err)
		}
		fp := n.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Fatalf("collision between %q and %q", prev, s)
		}
		seen[fp] = s
	}
}

func TestFingerprintNil(t *testing.T) {
	var n *tree.Node
	if !n.Fingerprint().IsZero() {
		t.Fatal("nil tree must fingerprint to the zero value")
	}
	if tree.New("x").Fingerprint().IsZero() {
		t.Fatal("non-nil tree must not fingerprint to the zero value")
	}
}

func TestFingerprintSizeField(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	labels := []string{"p", "q", "r"}
	root := tree.New("root")
	nodes := []*tree.Node{root}
	for i := 0; i < 200; i++ {
		n := tree.New(labels[r.Intn(len(labels))])
		nodes[r.Intn(len(nodes))].Add(n)
		nodes = append(nodes, n)
		if got := root.Fingerprint().Size; int(got) != root.Size() {
			t.Fatalf("fingerprint size %d != tree size %d", got, root.Size())
		}
	}
}

// TestFingerprintLessTotalOrder sanity-checks the canonicalisation order
// used by the cache for symmetric pair keys.
func TestFingerprintLessTotalOrder(t *testing.T) {
	fps := []tree.Fingerprint{
		{H1: 1, H2: 2, Size: 3}, {H1: 1, H2: 2, Size: 4},
		{H1: 1, H2: 3, Size: 0}, {H1: 2, H2: 0, Size: 0}, {},
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i].Less(fps[j]) })
	for i := 0; i+1 < len(fps); i++ {
		if fps[i+1].Less(fps[i]) {
			t.Fatalf("Less is not a total order around index %d: %+v", i, fps)
		}
		if fps[i].Less(fps[i]) {
			t.Fatal("Less must be irreflexive")
		}
	}
}

// corpusSeedTrees renders two real mini-app units and returns their
// semantic source trees — the fuzz seed corpus drawn from
// internal/corpus, as real-shaped inputs rather than toy examples.
func corpusSeedTrees(tb testing.TB) []*tree.Node {
	tb.Helper()
	var out []*tree.Node
	for _, seed := range []struct {
		app   string
		model corpus.Model
	}{
		{"babelstream", corpus.Serial},
		{"tealeaf", corpus.CUDA},
	} {
		app, err := corpus.AppByName(seed.app)
		if err != nil {
			tb.Fatal(err)
		}
		cb, err := corpus.Generate(app, seed.model)
		if err != nil {
			tb.Fatal(err)
		}
		for _, u := range cb.Units {
			out = append(out, minic.BuildSrcTree(cb.Files[u.File], u.File))
			if len(out) >= 4 {
				return out
			}
		}
	}
	return out
}

// FuzzFingerprint asserts the content-address equivalence on mutated
// inputs: Fingerprint(a) == Fingerprint(b) iff tree.Equal(a, b).
func FuzzFingerprint(f *testing.F) {
	seeds := corpusSeedTrees(f)
	for _, s := range seeds {
		f.Add(s.String(), s.String())
	}
	f.Add(seeds[0].String(), seeds[1].String())
	f.Add("(a (b c))", "(a b c)")
	f.Add("(unit x)", "(unit x)")
	f.Fuzz(func(t *testing.T, sa, sb string) {
		a, errA := tree.ParseSexpr(sa)
		b, errB := tree.ParseSexpr(sb)
		if errA != nil || errB != nil {
			t.Skip()
		}
		eq := tree.Equal(a, b)
		fpEq := a.Fingerprint() == b.Fingerprint()
		if eq != fpEq {
			t.Fatalf("Equal=%v but fingerprint-equal=%v\na=%s\nb=%s", eq, fpEq, a, b)
		}
		// the fingerprint of any parsed tree must survive a re-parse of
		// its canonical rendering (content addressing is representation
		// independent)
		rt, err := tree.ParseSexpr(a.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", a.String(), err)
		}
		if rt.Fingerprint() != a.Fingerprint() {
			t.Fatalf("fingerprint changed across String/Parse round-trip for %s", a)
		}
	})
}

// postorder collects the nodes of t in post-order.
func postorder(t *tree.Node, out []*tree.Node) []*tree.Node {
	for _, c := range t.Children {
		out = postorder(c, out)
	}
	return append(out, t)
}

// TestSubtreeFingerprintsMatchStandalone: the amortised one-pass walk of
// MirrorSubtreeFingerprints must agree with calling Fingerprint
// independently on every subtree of an explicitly mirrored copy, indexed
// by the copy's post-order — that identity is what makes keyroot blocks
// content-addressable (silvervale/internal/ted, DESIGN.md §13).
func TestSubtreeFingerprintsMatchStandalone(t *testing.T) {
	var roots []*tree.Node
	roots = append(roots, corpusSeedTrees(t)...)
	for _, s := range []string{
		"x",
		"(a (b c))",
		"(a (b (c d) e) (f g h) i)",
		"(loop (loop (loop body)))",
	} {
		n, err := tree.ParseSexpr(s)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, n)
	}
	for _, root := range roots {
		m := mirror(root)
		nodes := postorder(m, nil)
		fps := root.MirrorSubtreeFingerprints()
		if len(fps) != len(nodes) {
			t.Fatalf("%d fingerprints for %d nodes in %s", len(fps), len(nodes), root)
		}
		for i, nd := range nodes {
			if fps[i] != nd.Fingerprint() {
				t.Fatalf("mirrored subtree %d of %s: one-pass %+v != standalone %+v",
					i, root, fps[i], nd.Fingerprint())
			}
		}
		// the final entry is the whole mirror, by the post-order contract
		if fps[len(fps)-1] != m.Fingerprint() {
			t.Fatalf("last subtree fingerprint is not the mirror root's for %s", root)
		}
	}
	var nilNode *tree.Node
	if got := nilNode.MirrorSubtreeFingerprints(); got != nil {
		t.Fatalf("nil tree yielded %v, want nil", got)
	}
}

// mirror returns a copy of t with every child list reversed.
func mirror(t *tree.Node) *tree.Node {
	m := tree.New(t.Label)
	for k := len(t.Children) - 1; k >= 0; k-- {
		m.Add(mirror(t.Children[k]))
	}
	return m
}

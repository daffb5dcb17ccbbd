package ted

import (
	"sort"
	"sync"

	"silvervale/internal/tree"
)

// Label interning is shared process-wide: ids are only ever compared for
// equality, so one append-only table serves every tree, every cache, and
// every engine worker. Sharing is what makes per-tree flat memos reusable
// across calls — a label id minted while flattening one tree means the
// same byte string when it appears in any other tree. The table never
// shrinks; the label universe (node roles and operation names emitted by
// the indexer) is small and bounded in practice.
var (
	internMu  sync.RWMutex
	internIDs = make(map[string]int32)
)

// internID returns the dense id for label, minting one on first sight.
func internID(label string) int32 {
	internMu.RLock()
	id, ok := internIDs[label]
	internMu.RUnlock()
	if ok {
		return id
	}
	internMu.Lock()
	defer internMu.Unlock()
	if id, ok := internIDs[label]; ok {
		return id
	}
	id = int32(len(internIDs))
	internIDs[label] = id
	return id
}

// internTableSize reports the current id-space size; gate scratch arrays
// indexed by label id are sized against it.
func internTableSize() int {
	internMu.RLock()
	n := len(internIDs)
	internMu.RUnlock()
	return n
}

// flat is a tree flattened to post-order arrays, the representation
// Zhang–Shasha operates on. A flat is immutable once built; memoised
// flats (see Cache) are shared across goroutines on that basis.
//
// Every flat is built from the tree's mirror image (children taken right
// to left), so the left-path keyroot DP below runs along the original
// tree's right paths. TED is invariant under mirroring both trees, so
// distances are unchanged; the work is not. Zhang–Shasha fills L(a)·L(b)
// forest cells, L(T) the summed subtree sizes over T's keyroots, and on
// the corpus the mirrored product is 0.42–0.53 of the plain one on T_sem
// and 0.58–0.82 summed over all tree metrics, per app (DESIGN.md §6).
//
// Memoised flats (newFlat) additionally carry the keyroot content
// plumbing the subtree-block memo needs (DESIGN.md §13): the fingerprint
// of the (mirrored) subtree rooted at each keyroot, and the partition of
// post-order indices into per-keyroot left spines. Every node belongs to
// exactly one keyroot's spine (the keyroot of its lmld class), which is
// precisely the set of treedist cells that keyroot pair writes into td —
// so a block restore needs only these index lists. The pooled
// package-level path leaves all three nil and always runs the monolithic
// DP.
type flat struct {
	labels []int32 // interned label id per post-order index
	lmld   []int32 // leftmost leaf descendant per post-order index
	kr     []int   // keyroots in increasing order

	krFP     []tree.Fingerprint // content address of mirrored subtree rooted at kr[k]
	spine    []int32            // post-order indices grouped by owning keyroot
	spineOff []int32            // spine[spineOff[k]:spineOff[k+1]] = kr[k]'s spine, ascending
}

// flattener drives the post-order walk. A struct method recurses without
// the closure allocation the seed paid per flatten.
type flattener struct {
	labels []int32
	lmld   []int32
	idx    int
}

// visit records node's mirror image — children right to left — and
// returns its leftmost-leaf post-order index. This is the one place the
// walk direction is fixed, for the memoised and the pooled path alike.
func (fl *flattener) visit(node *tree.Node) int32 {
	first := int32(-1)
	for k := len(node.Children) - 1; k >= 0; k-- {
		l := fl.visit(node.Children[k])
		if first < 0 {
			first = l
		}
	}
	i := fl.idx
	fl.idx++
	fl.labels[i] = internID(node.Label)
	if first < 0 {
		first = int32(i)
	}
	fl.lmld[i] = first
	return first
}

// fillFlat populates f (whose labels/lmld must already have length n) from
// t and collects keyroots. seen must have length >= n and be all-false; it
// is restored to all-false before returning, so callers can pool it.
//
// Keyroots are the root plus every node with a left sibling — equivalently
// the highest node for each distinct lmld value. Scanning post-order
// indices downward, the first node seen per lmld value is that highest
// node, which yields the keyroots in one pass over a bool table instead of
// the seed's map. The descending collection is then handed to sort.Ints:
// keyroot count equals leaf count, so on wide flat trees the old insertion
// sort was O(n²) while sort.Ints keeps this O(n log n).
func fillFlat(f *flat, t *tree.Node, seen []bool) {
	fl := flattener{labels: f.labels, lmld: f.lmld}
	fl.visit(t)
	f.kr = f.kr[:0]
	for i := len(f.labels) - 1; i >= 0; i-- {
		l := f.lmld[i]
		if !seen[l] {
			seen[l] = true
			f.kr = append(f.kr, i)
		}
	}
	sort.Ints(f.kr)
	for _, k := range f.kr {
		seen[f.lmld[k]] = false
	}
}

// newFlat builds an exactly-sized, immutable flat for memoisation. Unlike
// the pooled path it allocates fresh backing arrays so the result can
// outlive any scratch buffers.
func newFlat(t *tree.Node) *flat {
	n := t.Size()
	f := &flat{
		labels: make([]int32, n),
		lmld:   make([]int32, n),
	}
	fillFlat(f, t, make([]bool, n))
	// Trim the keyroot slice to size: memoised flats live for the whole
	// sweep, so the append slack is worth returning to the allocator.
	f.kr = append(make([]int, 0, len(f.kr)), f.kr...)
	f.buildSpines(t)
	return f
}

// buildSpines fills the keyroot content plumbing of a memoised flat: per-
// keyroot subtree fingerprints (one amortised MirrorSubtreeFingerprints
// walk, post-order-aligned with the mirrored flat arrays) and the spine
// partition. Spines are built counting-sort style — keyroots and lmld
// values are in bijection, so a slot table indexed by lmld value maps
// every node to its owning keyroot in O(n) with no hashing, and the
// ascending scan leaves each spine slice sorted, the order treedist
// writes its td cells in.
func (f *flat) buildSpines(t *tree.Node) {
	n := len(f.labels)
	sub := t.MirrorSubtreeFingerprints()
	k := len(f.kr)
	f.krFP = make([]tree.Fingerprint, k)
	slot := make([]int32, n)
	for ki, i := range f.kr {
		f.krFP[ki] = sub[i]
		slot[f.lmld[i]] = int32(ki)
	}
	f.spineOff = make([]int32, k+1)
	for x := 0; x < n; x++ {
		f.spineOff[slot[f.lmld[x]]+1]++
	}
	for ki := 1; ki <= k; ki++ {
		f.spineOff[ki] += f.spineOff[ki-1]
	}
	f.spine = make([]int32, n)
	next := make([]int32, k)
	copy(next, f.spineOff[:k])
	for x := 0; x < n; x++ {
		ki := slot[f.lmld[x]]
		f.spine[next[ki]] = int32(x)
		next[ki]++
	}
}

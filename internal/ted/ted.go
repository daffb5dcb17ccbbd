// Package ted implements Tree Edit Distance (TED).
//
// TED is defined as the minimal total cost of deleting, inserting, and
// relabelling tree nodes required to transform one ordered tree into another
// (Section III.B of the paper; Bille's survey; Zhang & Shasha). The exact
// algorithm implemented here is Zhang–Shasha with keyroots, which runs in
// O(n1*n2*min(d1,l1)*min(d2,l2)) time and O(n1*n2) space. The paper uses
// APTED, whose worst case is O(n^2) space as well; for the unit-sized trees
// produced by the indexing step the Zhang–Shasha bound is equivalent in
// practice, and the package additionally provides a pq-gram approximation
// (see approx.go) as the memory-friendly mode the paper lists as future
// work.
//
// The hot path is organised around reuse (DESIGN.md §6): every tree is
// flattened from its mirror image, so the keyroot DP runs along right
// paths, the cheaper decomposition on the corpus (flatten.go); labels
// intern into one process-wide table (flatten.go), per-call buffers — flattened trees,
// DP matrices, gate tables — come from a sync.Pool sized by high-water mark
// (pool.go), cheap exact bound gates run before the quadratic DP
// (bounds.go), and Cache memoises the flattened form of each tree by
// content fingerprint so a matrix sweep flattens every tree once.
//
// By default every operation has unit cost, matching the evaluation setup
// ("we use the unit weight of one for all nodes and operations"). Different
// weights can be supplied via Costs; e.g. adding new code may have a
// different productivity impact than removing existing code.
package ted

import (
	"sort"

	"silvervale/internal/tree"
)

// Costs configures per-operation weights.
type Costs struct {
	Insert int
	Delete int
	Rename int // cost of relabelling when labels differ
}

// UnitCosts is the configuration used throughout the paper's evaluation.
func UnitCosts() Costs { return Costs{Insert: 1, Delete: 1, Rename: 1} }

// Distance computes the exact tree edit distance between two trees with unit
// costs. Nil trees are treated as empty: the distance from nil to T is |T|.
func Distance(t1, t2 *tree.Node) int {
	return DistanceWithCosts(t1, t2, UnitCosts())
}

// DistanceWithCosts computes the exact tree edit distance under the given
// cost model. Identical trees return 0 without flattening either one.
func DistanceWithCosts(t1, t2 *tree.Node, c Costs) int {
	if t1 == nil && t2 == nil {
		return 0
	}
	if t1 == nil {
		return t2.Size() * c.Insert
	}
	if t2 == nil {
		return t1.Size() * c.Delete
	}
	if t1 == t2 || tree.Equal(t1, t2) {
		// d(t, t) == 0 under every cost model: the empty edit script. The
		// O(n) check spares self-comparisons (core.SelfCheck) the DP.
		return 0
	}
	sc := getScratch()
	sc.prepFlat(&sc.fa, t1.Size())
	fillFlat(&sc.fa, t1, sc.seen)
	sc.prepFlat(&sc.fb, t2.Size())
	fillFlat(&sc.fb, t2, sc.seen)
	d, pruned := boundGate(&sc.fa, &sc.fb, c, sc)
	if !pruned {
		d = zsDistance(&sc.fa, &sc.fb, c, sc)
	}
	putScratch(sc)
	return d
}

// zsDistance runs the Zhang–Shasha keyroot recurrence over two flattened
// trees using sc's pooled DP matrices. This monolithic form is the
// reference the memoised decomposition below must match bit for bit.
func zsDistance(a, b *flat, c Costs, sc *dpScratch) int {
	n1 := len(a.labels)
	n2 := len(b.labels)
	td, fd, boff := sc.dpTables(n1, n2)
	for _, i := range a.kr {
		for _, j := range b.kr {
			treedist(a, b, i, j, c, td, fd, boff)
		}
	}
	return int(td[n1-1][n2-1])
}

// zsDistanceMemo is zsDistance decomposed into its keyroot subproblems,
// each served from the cache's content-addressed subtree-block memo when
// possible (DESIGN.md §13). Soundness rests on two properties of the
// Zhang–Shasha recurrence:
//
//   - treedist(i, j) writes exactly the td cells spine(i) x spine(j) —
//     the subtree pairs whose keyroot pair is (i, j) — and those values
//     are the exact subtree-pair distances, a pure function of the two
//     subtrees' content plus the cost model. Nothing else about the
//     enclosing trees leaks in.
//   - its td reads are confined to cells owned by strictly earlier pairs
//     in the ascending keyroot enumeration.
//
// So a block keyed by (subtree fingerprint pair, costs) can be restored
// into td in enumeration order in place of re-running the DP, and every
// later read — including the final root pair — sees bit-identical values.
// The subtrees are those of the mirrored flats the DP consumes, so the
// key is the mirrored subtree's fingerprint (flat.krFP). This is why the
// memo is exact where a subtree-alignment DP is only an upper bound: it
// replays the monolithic DP's own subproblem results rather than
// re-deriving the distance from per-subtree distances, which cannot
// express forest mappings that split a subtree (§12).
//
// Lazy materialisation keeps the warm path off the recompute floor (§13).
// A hit block's cells are only written into td when a DP run may actually
// read them. treedist(i, j) reads td cells confined to the post-order
// rectangle subtree(i) x subtree(j), and every cell in it is owned by a
// keyroot pair inside the same rectangle, so restoring the pending blocks
// of that keyroot sub-grid just before the run covers every read. Pairs
// below the size threshold need no materialisation at all: their read set
// is owned by strictly smaller pairs, which are below the threshold too
// and therefore always freshly computed.
//
// Map traffic is batched: one read-lock probes the whole keyroot grid
// (phase 1), the DP/materialise pass runs lock-free (phase 2), and one
// write lock publishes fresh blocks and probe rows keep-first (phase 3) —
// so the warm path pays two lock acquisitions per tree pair, not two per
// keyroot pair. The probe-row memo collapses phase 1 further: a keyroot row
// whose probe once came back all-hit is recorded under (a keyroot
// subtree, b tree, costs) and replayed as one map probe plus a pointer
// copy, so a warm re-probe pays one lookup per row instead of one per
// memoisable slot (§13).
func (c *Cache) zsDistanceMemo(a, b *flat, costs Costs, sc *dpScratch, o *cacheObs) int {
	n1 := len(a.labels)
	n2 := len(b.labels)
	td, fd, boff := sc.dpTables(n1, n2)
	k1 := len(a.kr)
	k2 := len(b.kr)
	blocks, done := sc.blockRefs(k1 * k2)
	minCells := c.subMin

	var hits, misses, rowHits, rowMisses, cellsRun uint64
	var freshRows []rowEntry
	bRoot := b.krFP[k2-1] // root is the last keyroot: the whole b tree
	c.subMu.RLock()
	for ki, i := range a.kr {
		m1 := i - int(a.lmld[i]) + 1
		row := blocks[ki*k2 : (ki+1)*k2]
		// One probe-row memo hit replaces the whole slot-by-slot scan.
		// Recorded rows were all-hit when recorded, and the block memo is
		// keep-first and append-only, so the replay equals a fresh probe:
		// same slots, same blocks, same hit count (see rowEntry).
		rk := rowKey{a: a.krFP[ki], b: bRoot, costs: costs}
		if slots, ok := c.rows[rk]; ok {
			rowHits++
			for kj := range row {
				row[kj] = nil
			}
			for _, s := range slots {
				row[s.kj] = s.bl
			}
			hits += uint64(len(slots))
			continue
		}
		rowMisses++
		allHit := true
		var slots []rowSlot
		for kj, j := range b.kr {
			if m1*(j-int(b.lmld[j])+1) < minCells {
				row[kj] = nil // scratch slot may hold a stale pointer
				continue
			}
			bl := c.subs[subKey{a: a.krFP[ki], b: b.krFP[kj], costs: costs}]
			row[kj] = bl
			if bl != nil {
				hits++
				slots = append(slots, rowSlot{kj: int32(kj), bl: bl})
			} else {
				allHit = false
			}
		}
		if allHit {
			freshRows = append(freshRows, rowEntry{key: rk, slots: slots})
		}
	}
	c.subMu.RUnlock()

	// run is one treedist call, counted into the pair's m1·m2 keyroot cells.
	run := func(i, j int) {
		treedist(a, b, i, j, costs, td, fd, boff)
		cellsRun += uint64(i-int(a.lmld[i])+1) * uint64(j-int(b.lmld[j])+1)
	}

	// materialise produces every pending td cell inside the post-order
	// rectangle [aLo..aHi] x [bLo..bHi] — the cells the next DP run may
	// read: hit blocks are restored, and below-threshold pairs (deferred
	// by the main loop — most of them are never read on a warm sweep) are
	// computed now, in ascending keyroot-pair order so their own reads are
	// satisfied first. Keyroot subtrees never straddle the bounds used
	// here (subtree rectangles are unions of whole keyroot subtrees), so
	// the sorted keyroot arrays give the covered pairs as contiguous index
	// ranges, and a covered pair's own read rectangle is nested inside the
	// requested one — no recursion. Memoisable misses inside the rectangle
	// need no case: rectangle containment means they enumerate before the
	// requesting pair, so the main loop already computed them (their done
	// mark distinguishes them from deferred below-threshold slots); the
	// requesting pair itself is skipped by the threshold test.
	materialise := func(aLo, aHi, bLo, bHi int) {
		kiLo := sort.SearchInts(a.kr, aLo)
		kjLo := sort.SearchInts(b.kr, bLo)
		for ki := kiLo; ki < k1 && a.kr[ki] <= aHi; ki++ {
			i := a.kr[ki]
			m1 := i - int(a.lmld[i]) + 1
			row := blocks[ki*k2 : (ki+1)*k2]
			rdone := done[ki*k2 : (ki+1)*k2]
			var rows []int32
			for kj := kjLo; kj < k2 && b.kr[kj] <= bHi; kj++ {
				if rdone[kj] {
					continue
				}
				if bl := row[kj]; bl != nil {
					rdone[kj] = true
					if rows == nil {
						rows = a.spine[a.spineOff[ki]:a.spineOff[ki+1]]
					}
					restoreBlock(td, rows, b.spine[b.spineOff[kj]:b.spineOff[kj+1]], bl.vals)
				} else if j := b.kr[kj]; m1*(j-int(b.lmld[j])+1) < minCells {
					rdone[kj] = true
					run(i, j)
				}
			}
		}
	}

	var fresh []subEntry
	st := c.backing.Load()
	for ki, i := range a.kr {
		li := int(a.lmld[i])
		m1 := i - li + 1
		rows := a.spine[a.spineOff[ki]:a.spineOff[ki+1]]
		row := blocks[ki*k2 : (ki+1)*k2]
		rdone := done[ki*k2 : (ki+1)*k2]
		for kj, j := range b.kr {
			if row[kj] != nil {
				continue // hit: materialised lazily if a later DP reads it
			}
			lj := int(b.lmld[j])
			cells := m1 * (j - lj + 1)
			if cells < minCells {
				continue // deferred: materialised only if a later DP reads it
			}
			cols := b.spine[b.spineOff[kj]:b.spineOff[kj+1]]
			key := subKey{a: a.krFP[ki], b: b.krFP[kj], costs: costs}
			// Large blocks are worth a disk round trip: consult the
			// persistent sub tier before paying the DP. Re-probe memory
			// first: a concurrent worker may have published the block
			// since the probe pass, and its write-behind copy must not be
			// read back from disk as a store hit.
			if st != nil && cells >= subStoreMinCells {
				c.subMu.RLock()
				bl := c.subs[key]
				c.subMu.RUnlock()
				if bl != nil {
					hits++
					row[kj] = bl
					continue
				}
				if l1, l2, vals, ok := st.LookupSub(subStoreKey(key)); ok &&
					int(l1) == len(rows) && int(l2) == len(cols) {
					hits++
					// Promote into the grid: later DP runs materialise it
					// on demand, exactly like a memory hit.
					row[kj] = &subBlock{l1: l1, l2: l2, vals: vals}
					fresh = append(fresh, subEntry{key: key, block: row[kj]})
					continue
				}
			}
			misses++
			materialise(li, i, lj, j)
			run(i, j)
			rdone[kj] = true
			fresh = append(fresh, subEntry{key: key, block: &subBlock{
				l1:   int32(len(rows)),
				l2:   int32(len(cols)),
				vals: harvestBlock(td, rows, cols),
			}, persist: cells >= subStoreMinCells})
		}
	}

	var d int
	if bl := blocks[k1*k2-1]; bl != nil {
		// Root-pair hit that nothing recomputed ever read: the distance is
		// the block's last cell, no materialisation needed.
		d = int(bl.vals[len(bl.vals)-1])
	} else {
		if !done[k1*k2-1] {
			// The root pair itself was below the memo threshold — then so is
			// every pair (nothing has more cells), and the whole grid was
			// deferred. Produce it now; the ascending scan ends with the
			// root-pair DP.
			materialise(0, n1-1, 0, n2-1)
		}
		d = int(td[n1-1][n2-1])
	}

	if len(fresh) > 0 || len(freshRows) > 0 {
		c.publishSubBlocks(fresh, freshRows, st, o)
	}
	if hits > 0 {
		c.subHits.Add(hits)
		if o != nil {
			o.subHits.Add(int64(hits))
		}
	}
	if misses > 0 {
		c.subMisses.Add(misses)
		if o != nil {
			o.subMisses.Add(int64(misses))
		}
	}
	if rowHits > 0 {
		c.rowHits.Add(rowHits)
		if o != nil {
			o.rowHits.Add(int64(rowHits))
		}
	}
	if rowMisses > 0 {
		c.rowMisses.Add(rowMisses)
		if o != nil {
			o.rowMisses.Add(int64(rowMisses))
		}
	}
	if cellsRun > 0 {
		c.keyrootCells.Add(cellsRun)
		if o != nil {
			o.cells.Add(int64(cellsRun))
		}
	}
	return d
}

// restoreBlock writes a memoised block's values into the td cells the
// originating treedist call wrote: the row-major spine(i) x spine(j) grid.
func restoreBlock(td [][]int32, rows, cols []int32, vals []int32) {
	for r, x := range rows {
		tdRow := td[x]
		v := vals[r*len(cols):]
		for ci, y := range cols {
			tdRow[y] = v[ci]
		}
	}
}

// harvestBlock copies the td cells a treedist call just wrote into a
// fresh backing array, the immutable payload of a new block.
func harvestBlock(td [][]int32, rows, cols []int32) []int32 {
	vals := make([]int32, len(rows)*len(cols))
	for r, x := range rows {
		tdRow := td[x]
		v := vals[r*len(cols):]
		for ci, y := range cols {
			v[ci] = tdRow[y]
		}
	}
	return vals
}

// treedist fills td for the subtree pair rooted at post-order indices (i, j)
// following the classic Zhang–Shasha forest recurrence. The inner loop is
// restructured for the profile-measured hot path: the b-side lmld offsets
// are precomputed once per keyroot pair into boff (so the per-cell whole-
// forest test is a single compare against 0), rows where the a-forest is a
// whole subtree are split from the common case (removing the branch from
// the majority of cells), and the west/northwest neighbours are carried in
// registers across the row instead of re-read from the matrix.
func treedist(a, b *flat, i, j int, c Costs, td, fd [][]int32, boff []int32) {
	li := int(a.lmld[i])
	lj := int(b.lmld[j])
	m1 := i - li + 1 // a-forest size (DP rows)
	m2 := j - lj + 1 // b-forest size (DP cols)
	ins := int32(c.Insert)
	del := int32(c.Delete)
	ren := int32(c.Rename)

	fd[0][0] = 0
	col := int32(0)
	for r := 1; r <= m1; r++ {
		col += del
		fd[r][0] = col
	}
	row0 := fd[0][:m2+1]
	acc := int32(0)
	for cj := 1; cj <= m2; cj++ {
		acc += ins
		row0[cj] = acc
	}

	// boff[cj] is bLmld[lj+cj]-lj: 0 exactly when the b-forest ending at
	// that node is a whole subtree, and otherwise the fd column where the
	// left part of the split b-forest ends.
	bl := b.lmld[lj : j+1]
	bo := boff[:m2]
	for cj := range bo {
		bo[cj] = bl[cj] - int32(lj)
	}
	blab := b.labels[lj : j+1]

	for di := li; di <= i; di++ {
		r := di - li
		prev := fd[r][:m2+1]
		cur := fd[r+1][:m2+1]
		tdRow := td[di][lj : j+1]
		fdA := fd[int(a.lmld[di])-li]
		left := cur[0]
		if int(a.lmld[di]) == li {
			// The a-forest is a whole subtree: cells where the b-forest is
			// too (bo == 0) both close a treedist entry and use the rename
			// recurrence.
			la := a.labels[di]
			diag := prev[0]
			for cj := 0; cj < m2; cj++ {
				up := prev[cj+1]
				var d int32
				if bo[cj] == 0 {
					rc := int32(0)
					if la != blab[cj] {
						rc = ren
					}
					d = min3(up+del, left+ins, diag+rc)
					tdRow[cj] = d
				} else {
					d = min3(up+del, left+ins, fdA[bo[cj]]+tdRow[cj])
				}
				cur[cj+1] = d
				left = d
				diag = up
			}
		} else {
			for cj := 0; cj < m2; cj++ {
				d := min3(prev[cj+1]+del, left+ins, fdA[bo[cj]]+tdRow[cj])
				cur[cj+1] = d
				left = d
			}
		}
	}
}

func min3(a, b, c int32) int32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// MaxDistance returns dmax for a tree pair (Eq. 7): the size of the
// right-hand tree, i.e. the distance at which the second codebase is
// considered entirely different from the first. MaxDistance of a nil tree
// is 0.
func MaxDistance(t2 *tree.Node) int { return t2.Size() }

// Normalized returns Distance(t1, t2) normalised into [0, ~]: distance
// divided by dmax (Eq. 7). A value of 0 means identical; values can exceed 1
// when |t1| > |t2| because dmax is not a strict upper bound ("this is
// different from a divergence upper-bound, which we do not define").
func Normalized(t1, t2 *tree.Node) float64 {
	dm := MaxDistance(t2)
	if dm == 0 {
		if t1.Size() == 0 {
			return 0
		}
		return 1
	}
	return float64(Distance(t1, t2)) / float64(dm)
}

package ted

import "sync"

// dpScratch bundles every per-call buffer the exact TED path needs: the
// flattened representations of both trees (uncached path only — the cached
// path borrows memoised flats instead), the keyroot bool table, the DP
// matrix backings with their row headers, the per-keyroot b-offset row,
// and the stamp/count tables the bound gates use. All slices grow to the
// high-water mark of the trees a scratch has seen and are never shrunk, so
// a steady-state matrix sweep reuses the same memory for every cell.
//
// Matrix contents are deliberately NOT zeroed between uses: the
// Zhang–Shasha recurrence writes every forest-distance cell before reading
// it, and only reads treedist cells written earlier in the same run (each
// subtree pair belongs to exactly one keyroot pair, processed in ascending
// order). The equivalence property test pins this invariant against the
// seed implementation, which zeroed both matrices on every call.
type dpScratch struct {
	fa, fb flat   // uncached-path flatten targets
	seen   []bool // keyroot collection table; all-false between uses

	td, fd         []int32     // DP matrix backings
	tdRows, fdRows [][]int32   // row headers over td/fd
	boff           []int32     // per-treedist b-side lmld offsets
	blocks         []*subBlock // per-keyroot-pair probe results (memoised path)
	done           []bool      // per-keyroot-pair lazily-restored marks (memoised path)

	stamp []int32 // bound gate: label-id stamps, indexed by interned id
	cnt   []int32 // bound gate: label multiplicities for stamped ids
	epoch int32   // current stamp generation
}

var scratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

func getScratch() *dpScratch  { return scratchPool.Get().(*dpScratch) }
func putScratch(s *dpScratch) { scratchPool.Put(s) }

// grow32 returns s with length n, reallocating only when capacity is
// exceeded. Contents are unspecified.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// prepFlat sizes the scratch-owned flat f for an n-node tree and returns
// a keyroot table of at least n false entries.
func (s *dpScratch) prepFlat(f *flat, n int) {
	f.labels = grow32(f.labels, n)
	f.lmld = grow32(f.lmld, n)
	if cap(s.seen) < n {
		s.seen = make([]bool, n)
	}
}

// dpTables shapes the treedist/forestdist matrices and the b-offset row
// for an n1 x n2 tree pair — the shared prologue of zsDistance and the
// memoised Cache.zsDistanceMemo, which must size scratch identically for
// the dirty-reuse invariant to hold across both paths. Contents are
// unspecified (see the dpScratch comment).
func (s *dpScratch) dpTables(n1, n2 int) (td, fd [][]int32, boff []int32) {
	td = s.matrix(&s.td, &s.tdRows, n1, n2)
	fd = s.matrix(&s.fd, &s.fdRows, n1+1, n2+1)
	s.boff = grow32(s.boff, n2)
	return td, fd, s.boff
}

// blockRefs returns a scratch slice of n block pointers with unspecified
// contents; the memoised path's probe phase overwrites every slot before
// any is read. The parallel done slice (returned cleared) marks grid
// slots whose block has already been materialised into td.
func (s *dpScratch) blockRefs(n int) ([]*subBlock, []bool) {
	if cap(s.blocks) < n {
		s.blocks = make([]*subBlock, n)
		s.done = make([]bool, n)
	}
	done := s.done[:n]
	for i := range done {
		done[i] = false
	}
	return s.blocks[:n], done
}

// matrix shapes rows r x c row headers over backing, growing both to the
// high-water mark. Row contents are unspecified.
func (s *dpScratch) matrix(backing *[]int32, rows *[][]int32, r, c int) [][]int32 {
	*backing = grow32(*backing, r*c)
	if cap(*rows) < r {
		*rows = make([][]int32, r)
	}
	out := (*rows)[:r]
	b := *backing
	for i := 0; i < r; i++ {
		out[i] = b[i*c : (i+1)*c]
	}
	return out
}

// stampTables sizes the gate's stamp/count arrays to the current interner
// id space and bumps the epoch, clearing on first use or wrap-around so a
// stale stamp can never alias the new generation.
func (s *dpScratch) stampTables() ([]int32, []int32, int32) {
	n := internTableSize()
	if cap(s.stamp) < n {
		s.stamp = make([]int32, n)
		s.cnt = make([]int32, n)
		s.epoch = 0
	}
	s.stamp = s.stamp[:n]
	s.cnt = s.cnt[:n]
	s.epoch++
	if s.epoch <= 0 { // wrapped: reset stamps so old generations cannot match
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	return s.stamp, s.cnt, s.epoch
}

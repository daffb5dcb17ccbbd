package ted

import (
	"sort"

	"silvervale/internal/store"
	"silvervale/internal/tree"
)

// This file holds the state side of the subtree-block memo (DESIGN.md
// §13); the DP driver that consumes it is Cache.zsDistanceMemo in ted.go.
//
// A block is the td output of one keyroot-pair treedist call: the exact
// distances for every subtree pair owned by that keyroot pair, laid out
// row-major over the two left spines. Because those values are a pure
// function of the two keyroot subtrees plus the cost model, blocks are
// addressed by (subtree fingerprint pair, costs) — the same
// content-addressing discipline as the distance memo, one level down.
// Keys are oriented (no symmetric canonicalisation): a block's row/column
// roles are fixed by which side each subtree was on, and canonicalising
// would require transposing payloads on hit for no measured win.

const (
	// subDefaultMinCells is the memoisation threshold on the keyroot
	// pair's DP size (m1*m2, the forest-distance work a hit saves). Below
	// it the map probe, harvest copy, and entry overhead cost more than
	// the DP they replace; such pairs always recompute.
	subDefaultMinCells = 64

	// subStoreMinCells gates the persistent sub tier: only blocks whose
	// DP is at least this large are read from or written to disk, so a
	// store round trip (decode + key echo) is always cheaper than the DP
	// it replaces.
	subStoreMinCells = 1 << 16

	// subDefaultMaxBytes bounds the in-memory memo. Spines are short —
	// a block holds L1*L2 cells, not m1*m2 — so a whole-corpus working
	// set measures in tens of megabytes and the bound exists to cap
	// pathological corpora, not to cycle on normal ones.
	subDefaultMaxBytes = 128 << 20

	// subEntryOverhead approximates per-entry bookkeeping bytes (key,
	// block header, map bucket share) on top of the payload.
	subEntryOverhead = 120

	// rowDefaultMaxBytes bounds the probe-row memo. Entries are slot lists
	// (16 bytes per recorded hit), so even a fully warm corpus measures in
	// single-digit megabytes; the bound caps pathological corpora.
	rowDefaultMaxBytes = 64 << 20

	// rowEntryOverhead approximates per-entry bookkeeping bytes.
	rowEntryOverhead = 112
)

// rowKey addresses one probed keyroot row of the block grid: the a-side
// keyroot subtree, the whole b tree, and the cost model. For a fixed b
// flat the probe result of row ki — which grid slot holds which block —
// is a pure function of these three, because every slot's block key is
// (a.krFP[ki], b.krFP[kj], costs) and the kj enumeration is determined
// by b's content.
type rowKey struct {
	a, b  tree.Fingerprint
	costs Costs
}

// rowSlot records one above-threshold hit in a memoised probe row.
type rowSlot struct {
	kj int32
	bl *subBlock
}

// rowEntry is one freshly recorded all-hit probe row awaiting
// publication. Only rows whose every above-threshold slot hit are
// recorded: the block memo is keep-first and append-only (eviction
// aside), so an all-hit row can never gain a hit later — the recording
// is permanently identical to what a fresh slot-by-slot probe would
// return, and replaying it preserves both distances and counter
// semantics exactly.
type rowEntry struct {
	key   rowKey
	slots []rowSlot
}

// rowEntryBytes is the accounting size of one probe-row entry.
func rowEntryBytes(slots []rowSlot) int64 {
	return int64(len(slots))*16 + rowEntryOverhead
}

// subKey addresses one keyroot-pair block: oriented subtree fingerprints
// plus the cost model.
type subKey struct {
	a, b  tree.Fingerprint
	costs Costs
}

// subBlock is one memoised treedist output. Immutable once published;
// shared across goroutines and with export snapshots on that basis.
type subBlock struct {
	l1, l2 int32 // spine lengths: vals is l1 x l2 row-major
	vals   []int32
}

// subEntry is one freshly built block awaiting publication.
type subEntry struct {
	key     subKey
	block   *subBlock
	persist bool // also queue to the store's sub tier
}

// subBlockBytes is the accounting size of one entry.
func subBlockBytes(b *subBlock) int64 {
	return int64(len(b.vals))*4 + subEntryOverhead
}

// subStoreKey maps a memo key onto the persistent tier's key type.
func subStoreKey(k subKey) store.SubKey {
	return store.SubKey{A: k.a, B: k.b,
		Insert: k.costs.Insert, Delete: k.costs.Delete, Rename: k.costs.Rename}
}

// publishSubBlocks installs freshly built blocks and probe rows under one
// write lock, keep-first: a racing builder of the same key computed a
// bit-identical payload, so the loser's copy is garbage, never a
// conflict. Entries marked persist are queued to the store's sub tier
// after the lock drops. Probe rows are in-memory only (§13): they are
// re-derivable from one slot-by-slot probe, so disk round trips are not
// worth a tier.
func (c *Cache) publishSubBlocks(fresh []subEntry, freshRows []rowEntry, st *store.Store, o *cacheObs) {
	var persist []subEntry
	c.subMu.Lock()
	for _, e := range fresh {
		if _, ok := c.subs[e.key]; ok {
			continue
		}
		c.subs[e.key] = e.block
		c.subBytes += subBlockBytes(e.block)
		if e.persist && st != nil {
			persist = append(persist, e)
		}
	}
	var evicted uint64
	if c.subBytes > c.subMax {
		evicted = c.evictSubBlocksLocked()
	}
	for _, e := range freshRows {
		if _, ok := c.rows[e.key]; ok {
			continue
		}
		c.rows[e.key] = e.slots
		c.rowBytes += rowEntryBytes(e.slots)
	}
	var rowEvicted uint64
	if c.rowBytes > c.rowMax {
		rowEvicted = c.evictRowsLocked()
	}
	c.subMu.Unlock()
	if evicted > 0 {
		c.subEvicted.Add(evicted)
		if o != nil {
			o.subEvicted.Add(int64(evicted))
		}
	}
	if rowEvicted > 0 {
		c.rowEvicted.Add(rowEvicted)
		if o != nil {
			o.rowEvicted.Add(int64(rowEvicted))
		}
	}
	for _, e := range persist {
		st.PutSub(subStoreKey(e.key), e.block.l1, e.block.l2, e.block.vals)
	}
}

// evictSubBlocksLocked drops entries in map-iteration order until the
// memo is back under three quarters of its bound — hysteresis so a memo
// riding the limit does not evict on every publish. Random-order eviction
// is sound: a dropped block only costs a future recompute, never a wrong
// answer, and the bound is sized so normal corpora never get here.
func (c *Cache) evictSubBlocksLocked() uint64 {
	target := c.subMax - c.subMax/4
	var n uint64
	for k, b := range c.subs {
		if c.subBytes <= target {
			break
		}
		delete(c.subs, k)
		c.subBytes -= subBlockBytes(b)
		n++
	}
	return n
}

// evictRowsLocked is the probe-row-memo mirror of evictSubBlocksLocked.
// A dropped row only costs a future slot-by-slot probe. Probe rows pin
// the blocks they reference even past block eviction (the pointers stay
// valid — blocks are immutable — so a pinned block still restores
// correctly); dropping the row releases them.
func (c *Cache) evictRowsLocked() uint64 {
	target := c.rowMax - c.rowMax/4
	var n uint64
	for k, slots := range c.rows {
		if c.rowBytes <= target {
			break
		}
		delete(c.rows, k)
		c.rowBytes -= rowEntryBytes(slots)
		n++
	}
	return n
}

// SubtreeBlockRecord is the portable form of one memoised block, the unit
// of snapshot export/import. Vals aliases the live block payload — blocks
// are immutable — so exporting does not copy the working set; callers
// must treat records as read-only.
type SubtreeBlockRecord struct {
	A, B   tree.Fingerprint
	Costs  Costs
	L1, L2 int32
	Vals   []int32
}

// ExportSubtreeBlocks snapshots the memo in deterministic key order, so
// identical memo contents always serialise identically.
func (c *Cache) ExportSubtreeBlocks() []SubtreeBlockRecord {
	c.subMu.RLock()
	recs := make([]SubtreeBlockRecord, 0, len(c.subs))
	for k, b := range c.subs {
		recs = append(recs, SubtreeBlockRecord{
			A: k.a, B: k.b, Costs: k.costs, L1: b.l1, L2: b.l2, Vals: b.vals})
	}
	c.subMu.RUnlock()
	sort.Slice(recs, func(i, j int) bool {
		ri, rj := &recs[i], &recs[j]
		if ri.A != rj.A {
			return ri.A.Less(rj.A)
		}
		if ri.B != rj.B {
			return ri.B.Less(rj.B)
		}
		ci, cj := ri.Costs, rj.Costs
		if ci.Insert != cj.Insert {
			return ci.Insert < cj.Insert
		}
		if ci.Delete != cj.Delete {
			return ci.Delete < cj.Delete
		}
		return ci.Rename < cj.Rename
	})
	return recs
}

// ImportSubtreeBlocks seeds the memo from exported records (keep-first
// against anything already present) and returns how many were installed.
// Malformed records — nonpositive or inconsistent shapes — are skipped:
// an import can lose warmth but never correctness.
func (c *Cache) ImportSubtreeBlocks(recs []SubtreeBlockRecord) int {
	fresh := make([]subEntry, 0, len(recs))
	for _, r := range recs {
		if r.L1 <= 0 || r.L2 <= 0 || int(r.L1)*int(r.L2) != len(r.Vals) {
			continue
		}
		fresh = append(fresh, subEntry{
			key:   subKey{a: r.A, b: r.B, costs: r.Costs},
			block: &subBlock{l1: r.L1, l2: r.L2, vals: r.Vals},
		})
	}
	if len(fresh) == 0 {
		return 0
	}
	c.subMu.Lock()
	installed := 0
	for _, e := range fresh {
		if _, ok := c.subs[e.key]; ok {
			continue
		}
		c.subs[e.key] = e.block
		c.subBytes += subBlockBytes(e.block)
		installed++
	}
	var evicted uint64
	if c.subBytes > c.subMax {
		evicted = c.evictSubBlocksLocked()
	}
	c.subMu.Unlock()
	c.subEvicted.Add(evicted)
	return installed
}

package core

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"silvervale/internal/cbdb"
	"silvervale/internal/corpus"
	"silvervale/internal/coverage"
	"silvervale/internal/srcloc"
	"silvervale/internal/store"
	"silvervale/internal/ted"
)

// pr8ExtraFn is a semantically visible edit: appended to any C++ unit it
// adds a function, moving the unit's tsem tree (and so its fingerprint).
const pr8ExtraFn = "\ndouble pr8_extra(double x) {\n\treturn x * 2.0;\n}\n"

// generateAll builds the codebases of every port of an app.
func generateAll(tb testing.TB, appName string) (map[string]*corpus.Codebase, []string) {
	tb.Helper()
	app, err := corpus.AppByName(appName)
	if err != nil {
		tb.Fatal(err)
	}
	cbs := map[string]*corpus.Codebase{}
	var order []string
	for _, m := range corpus.ModelsFor(app) {
		cb, err := corpus.Generate(app, m)
		if err != nil {
			tb.Fatal(err)
		}
		cbs[string(m)] = cb
		order = append(order, string(m))
	}
	return cbs, order
}

// editKernels appends pr8ExtraFn to the codebase's kernels unit root and
// returns the edited file name.
func editKernels(tb testing.TB, cb *corpus.Codebase) string {
	tb.Helper()
	for _, u := range cb.Units {
		if u.Role == "kernels" {
			cb.Files[u.File] += pr8ExtraFn
			return u.File
		}
	}
	tb.Fatal("no kernels unit")
	return ""
}

// TestOptionsDigest pins what the digest distinguishes (system-header
// handling, coverage mask contents) and what it deliberately ignores
// (worker count, recorder — scheduling cannot change results).
func TestOptionsDigest(t *testing.T) {
	base := Options{}.Digest()
	if base == (store.ContentHash{}) {
		t.Fatal("zero digest for default options")
	}
	if d := (Options{Workers: 7}).Digest(); d != base {
		t.Fatal("worker count must not affect the digest")
	}
	if d := (Options{KeepSystemHeaders: true}).Digest(); d == base {
		t.Fatal("KeepSystemHeaders must move the digest")
	}
	mask := srcloc.NewLineMask()
	mask.Set("a.cpp", 3, true)
	withCov := Options{Coverage: coverage.NewProfile(mask)}
	d1 := withCov.Digest()
	if d1 == base {
		t.Fatal("a coverage mask must move the digest")
	}
	mask2 := srcloc.NewLineMask()
	mask2.Set("a.cpp", 3, true)
	if d := (Options{Coverage: coverage.NewProfile(mask2)}).Digest(); d != d1 {
		t.Fatal("equal masks must digest equal")
	}
	mask2.Set("a.cpp", 4, false)
	if d := (Options{Coverage: coverage.NewProfile(mask2)}).Digest(); d == d1 {
		t.Fatal("a dead line added to the mask must move the digest")
	}
}

// TestIncrementalIndexReuse: after a one-unit edit the incremental path
// reparses exactly that unit, and the result is indistinguishable from a
// cold index of the edited codebase.
func TestIncrementalIndexReuse(t *testing.T) {
	app, err := corpus.AppByName("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := IndexCodebase(cb, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// No edit: everything reuses, nothing reparses.
	same, st, err := IndexCodebaseIncremental(cb, prior, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.UnitsReparsed != 0 || st.UnitsReused != len(prior.Units) {
		t.Fatalf("unedited codebase: %+v", st)
	}
	for _, m := range Metrics() {
		if MetricHash(same, m) != MetricHash(prior, m) {
			t.Fatalf("%s: unedited incremental index hashes differently", m)
		}
	}

	edited := editKernels(t, cb)
	incr, st, err := IndexCodebaseIncremental(cb, prior, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.UnitsReparsed != 1 || st.UnitsReused != len(prior.Units)-1 {
		t.Fatalf("one-unit edit (%s): %+v", edited, st)
	}
	cold, err := IndexCodebase(cb, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Metrics() {
		if MetricHash(incr, m) != MetricHash(cold, m) {
			t.Fatalf("%s: incremental index diverges from cold reindex", m)
		}
	}
	for _, m := range Metrics() {
		d1, err := Diverge(prior, incr, m)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := Diverge(prior, cold, m)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("%s: incremental %+v vs cold %+v", m, d1, d2)
		}
	}

	// A different-options prior disqualifies itself: everything reparses.
	_, st, err = IndexCodebaseIncremental(cb, prior, Options{Workers: 1, KeepSystemHeaders: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.UnitsReused != 0 {
		t.Fatalf("prior built under different options was reused: %+v", st)
	}
}

// pr8Sweep indexes every codebase incrementally against prior indexes and
// runs one matrix sweep, returning the new indexes and the matrix.
func pr8Sweep(tb testing.TB, e *Engine, cbs map[string]*corpus.Codebase,
	prior map[string]*Index, order []string, metric string) (map[string]*Index, [][]float64) {
	tb.Helper()
	idxs := map[string]*Index{}
	for _, name := range order {
		idx, _, err := e.IndexCodebaseIncremental(cbs[name], prior[name], Options{})
		if err != nil {
			tb.Fatal(err)
		}
		idxs[name] = idx
	}
	m, err := e.Matrix(idxs, order, metric)
	if err != nil {
		tb.Fatal(err)
	}
	return idxs, m
}

// TestInvalidationExactness is the row/column property test: an edit to
// one unit of one model invalidates exactly the matrix cells touching
// that model — every other cell is served from the memo — the warm
// matrix is bit-identical to a cold engine's sweep of the edited corpus,
// and inside the recomputed cells the edit's subtree-block work is a
// fixed, mostly-restored count.
func TestInvalidationExactness(t *testing.T) {
	cbs, order := generateAll(t, "babelstream")
	n := len(order)
	cells := n * (n - 1) / 2

	e := NewEngine(2)
	idxs, cold := pr8Sweep(t, e, cbs, nil, order, MetricTsem)
	base := e.IncrStats()
	if base.CellsRecomputed != cells || base.CellsReused != 0 {
		t.Fatalf("cold sweep: %+v", base)
	}

	// Edit one unit of one model.
	const victim = "cuda"
	file := editKernels(t, cbs[victim])
	idxs2, warm := pr8Sweep(t, e, cbs, idxs, order, MetricTsem)
	d := e.IncrStats().Delta(base)

	if d.UnitsReparsed != 1 {
		t.Fatalf("one-unit edit reparsed %d units", d.UnitsReparsed)
	}
	if d.UnitsReused != n*2-1 {
		// every babelstream port is driver + kernels = 2 units
		t.Fatalf("units reused = %d, want %d", d.UnitsReused, n*2-1)
	}
	// Exactly the n-1 cells pairing the victim with every other model
	// recompute; every cell not touching the victim is reused.
	if d.CellsRecomputed != n-1 {
		t.Fatalf("edit to one model recomputed %d cells, want %d", d.CellsRecomputed, n-1)
	}
	if d.CellsReused != cells-(n-1) {
		t.Fatalf("cells reused = %d, want %d", d.CellsReused, cells-(n-1))
	}

	// Untouched cells are bit-identical to the previous sweep...
	vi := -1
	for i, name := range order {
		if name == victim {
			vi = i
		}
	}
	for i := range warm {
		for j := range warm[i] {
			if i == vi || j == vi {
				continue
			}
			if warm[i][j] != cold[i][j] {
				t.Fatalf("cell [%d][%d] moved without either side changing", i, j)
			}
		}
	}
	// ...and the whole warm matrix matches a cold engine, bit for bit.
	cache := ted.NewCache()
	fresh := NewEngineStore(2, cache, nil, nil)
	freshIdxs, coldEdited := pr8Sweep(t, fresh, cbs, nil, order, MetricTsem)
	if !sameBits(warm, coldEdited) {
		t.Fatal("warm incremental matrix differs from a cold sweep of the edited corpus")
	}

	// Sub-cell work counts (DESIGN.md §13), on a serial engine over the
	// cold engine's cache so scheduling cannot move them: a one-function
	// edit recomputes only the keyroot blocks it dirtied and restores the
	// rest from the subtree memo, and a second, structurally identical
	// edit does exactly the same block work. A memo that stops restoring
	// blocks fails both.
	serial := NewEngineStore(1, cache, nil, nil)
	freshIdxs, _ = pr8Sweep(t, serial, cbs, freshIdxs, order, MetricTsem)
	edited := cbs[victim].Files[file]
	blockWork := func(scale string) IncrStats {
		t.Helper()
		cbs[victim].Files[file] = strings.TrimSuffix(edited, pr8ExtraFn) +
			strings.Replace(pr8ExtraFn, "2.0", scale, 1)
		before := serial.IncrStats()
		freshIdxs, _ = pr8Sweep(t, serial, cbs, freshIdxs, order, MetricTsem)
		d := serial.IncrStats().Delta(before)
		if d.CellsRecomputed != n-1 {
			t.Fatalf("edit to one model recomputed %d cells, want %d", d.CellsRecomputed, n-1)
		}
		return d
	}
	first := blockWork("3.0")
	if first.SubtreeBlocksRecomputed <= 0 || first.SubtreeBlocksRecomputed >= first.SubtreeBlocksReused {
		t.Fatalf("one-function edit: %d subtree blocks recomputed, %d reused; want 0 < recomputed < reused",
			first.SubtreeBlocksRecomputed, first.SubtreeBlocksReused)
	}
	second := blockWork("4.0")
	if second.SubtreeBlocksReused != first.SubtreeBlocksReused ||
		second.SubtreeBlocksRecomputed != first.SubtreeBlocksRecomputed {
		t.Fatalf("identical edits did different block work: first %s; second %s", first.Line(), second.Line())
	}

	// Reverting the edit restores the original fingerprints, so the memo
	// still holds every cell of the original corpus: zero recomputes.
	cbRestored, err := corpus.Generate(mustApp(t, "babelstream"), corpus.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	cbs[victim] = cbRestored
	before := e.IncrStats()
	_, reverted := pr8Sweep(t, e, cbs, idxs2, order, MetricTsem)
	d = e.IncrStats().Delta(before)
	if d.CellsRecomputed != 0 || d.CellsReused != cells {
		t.Fatalf("reverted edit still recomputed cells: %+v", d)
	}
	if !sameBits(reverted, cold) {
		t.Fatal("reverted matrix differs from the original")
	}
}

func mustApp(tb testing.TB, name string) corpus.App {
	tb.Helper()
	app, err := corpus.AppByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return app
}

// TestCellMemoCostModelChange: cells memoised under one TED cost model
// are never served to a sweep under another — the cost model is part of
// the cell key.
func TestCellMemoCostModelChange(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	n := len(order)
	cells := n * (n - 1) / 2
	e := NewEngine(2)
	if _, err := e.MatrixWithCosts(idxs, order, MetricTsem, ted.UnitCosts()); err != nil {
		t.Fatal(err)
	}
	base := e.IncrStats()
	if base.CellsRecomputed != cells {
		t.Fatalf("cold sweep: %+v", base)
	}
	heavy := ted.Costs{Insert: 2, Delete: 2, Rename: 1}
	if _, err := e.MatrixWithCosts(idxs, order, MetricTsem, heavy); err != nil {
		t.Fatal(err)
	}
	d := e.IncrStats().Delta(base)
	if d.CellsReused != 0 || d.CellsRecomputed != cells {
		t.Fatalf("changed cost model was served cached cells: %+v", d)
	}
	// Same costs again: now everything hits.
	before := e.IncrStats()
	if _, err := e.MatrixWithCosts(idxs, order, MetricTsem, heavy); err != nil {
		t.Fatal(err)
	}
	d = e.IncrStats().Delta(before)
	if d.CellsReused != cells || d.CellsRecomputed != 0 {
		t.Fatalf("repeat sweep under the same costs missed the memo: %+v", d)
	}
}

// TestTieredMemoPolicyKey: a tiered sweep never reuses cells memoised by
// the exact path (or under a different budget) — the rendered policy is
// part of the cell key — while a repeated sweep under the same policy is
// answered entirely from the memo with its tier provenance intact.
func TestTieredMemoPolicyKey(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	n := len(order)
	cells := n * (n - 1) / 2
	e := NewEngine(2)
	if _, err := e.Matrix(idxs, order, MetricTsem); err != nil {
		t.Fatal(err)
	}
	base := e.IncrStats()

	policy := ted.NewTierPolicy(0.05)
	tm, err := e.MatrixTiered(idxs, order, MetricTsem, policy)
	if err != nil {
		t.Fatal(err)
	}
	d := e.IncrStats().Delta(base)
	if d.CellsReused != 0 || d.CellsRecomputed != cells {
		t.Fatalf("tiered sweep was served exact-path cells: %+v", d)
	}

	before := e.IncrStats()
	tm2, err := e.MatrixTiered(idxs, order, MetricTsem, policy)
	if err != nil {
		t.Fatal(err)
	}
	d = e.IncrStats().Delta(before)
	if d.CellsReused != cells || d.CellsRecomputed != 0 {
		t.Fatalf("repeat tiered sweep missed the memo: %+v", d)
	}
	if !sameBits(tm.Values, tm2.Values) {
		t.Fatal("memoised tiered matrix differs from the computed one")
	}
	if tm2.Stats != tm.Stats {
		t.Fatalf("memo hits lost tier provenance: %+v vs %+v", tm2.Stats, tm.Stats)
	}
}

// TestIncrementalDeterminismAcrossWorkers is the PR 8 determinism gate:
// cold sweep, one-function edit, warm incremental re-sweep — bit-identical
// to a cold engine at every worker count.
func TestIncrementalDeterminismAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	if raceEnabled {
		workerCounts = []int{1, 4}
	}
	var want [][]float64
	for _, workers := range workerCounts {
		cbs, order := generateAll(t, "babelstream")
		e := NewEngine(workers)
		idxs, _ := pr8Sweep(t, e, cbs, nil, order, MetricTsem)
		editKernels(t, cbs["omp"])
		_, warm := pr8Sweep(t, e, cbs, idxs, order, MetricTsem)

		fresh := NewEngine(workers)
		_, cold := pr8Sweep(t, fresh, cbs, nil, order, MetricTsem)
		if !sameBits(warm, cold) {
			t.Fatalf("workers=%d: warm incremental matrix differs from cold", workers)
		}
		if want == nil {
			want = warm
		} else if !sameBits(warm, want) {
			t.Fatalf("workers=%d: matrix differs from workers=%d", workers, workerCounts[0])
		}
	}
}

// TestSnapshotRoundTrip: the watch snapshot (indexes + memoised cells)
// survives Save/Load, and a restored engine answers a repeat sweep
// entirely from the imported memo, bit-identically.
func TestSnapshotRoundTrip(t *testing.T) {
	cbs, order := generateAll(t, "babelstream-fortran")
	e := NewEngine(1)
	idxs, cold := pr8Sweep(t, e, cbs, nil, order, MetricTsem)
	n := len(order)
	cells := n * (n - 1) / 2

	snap := &Snapshot{Metric: MetricTsem, Models: map[string]*cbdb.DB{}}
	for name, idx := range idxs {
		snap.Models[name] = idx.ToDB()
	}
	// Entries can undercount cells: ports with bit-identical trees share
	// a metric hash, so their cells collapse onto one memo key.
	snap.Cells = e.ExportCells()
	if len(snap.Cells) == 0 || len(snap.Cells) > cells {
		t.Fatalf("exported %d cells, want 1..%d", len(snap.Cells), cells)
	}
	path := filepath.Join(t.TempDir(), "warm.svsnap")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Metric != MetricTsem || len(loaded.Models) != n {
		t.Fatalf("loaded snapshot: metric=%q models=%d", loaded.Metric, len(loaded.Models))
	}
	if !reflect.DeepEqual(loaded.Cells, snap.Cells) {
		t.Fatal("cell records did not round trip")
	}

	e2 := NewEngine(1)
	e2.ImportCells(loaded.Cells)
	prior := map[string]*Index{}
	for name, db := range loaded.Models {
		idx, err := IndexFromDB(db)
		if err != nil {
			t.Fatal(err)
		}
		prior[name] = idx
	}
	_, warm := pr8Sweep(t, e2, cbs, prior, order, MetricTsem)
	st := e2.IncrStats()
	if st.CellsRecomputed != 0 || st.CellsReused != cells {
		t.Fatalf("restored engine recomputed cells: %+v", st)
	}
	if st.UnitsReparsed != 0 {
		t.Fatalf("restored engine reparsed units: %+v", st)
	}
	if !sameBits(warm, cold) {
		t.Fatal("restored sweep differs from the original")
	}
}

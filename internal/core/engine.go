package core

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"silvervale/internal/corpus"
	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/ted"
)

// Engine is the concurrent divergence engine: a bounded worker pool plus a
// shared content-addressed TED cache. It computes exactly the same numbers
// as the serial package-level functions (Diverge, Matrix, FromBase,
// ApproxDiverge) — every per-pair computation is self-contained and runs
// its floating-point accumulation in the same order — but schedules
// independent cells across workers and short-circuits repeated tree pairs
// through the cache. One Engine can be shared freely across goroutines;
// experiment sweeps and clustering runs should reuse a single Engine so
// every Matrix/FromBase call amortises the same memo — which includes the
// per-tree flat memo (DESIGN.md §6): across a sweep each distinct tree is
// flattened to its Zhang–Shasha form once, no matter how many cells
// reference it.
type Engine struct {
	workers int
	cache   *ted.Cache

	// astore is the optional persistent artifact store (nil when absent):
	// IndexCodebase warm-starts from its index tier, and NewEngineStore
	// wires the cache's distance tier through it.
	astore *store.Store

	// observability (all nil when disabled — the no-op hot path)
	rec        *obs.Recorder
	tasks      *obs.Counter   // engine.tasks — worker-pool tasks executed
	cells      *obs.Counter   // engine.cells — matrix cells scheduled
	taskNS     *obs.Histogram // engine.task_ns — per-task latency
	queueDepth *obs.Histogram // engine.queue_depth — remaining tasks at dequeue

	// tier accounting: cumulative routing counts across every tiered
	// sweep this engine ran (the post-sweep tier stats line), plus the
	// ted.tier_* obs counters (nil when observability is off).
	tierPairs     atomic.Uint64
	tierExact     atomic.Uint64
	tierEstimated atomic.Uint64
	tierFar       atomic.Uint64
	obsTierPairs  *obs.Counter // ted.tier_pairs — pairs routed by a tier policy
	obsTierExact  *obs.Counter // ted.tier_exact — pairs refined with exact Zhang–Shasha
	obsTierEst    *obs.Counter // ted.tier_estimated — pairs estimated from the pq-gram distance
	obsTierFar    *obs.Counter // ted.tier_far — pairs estimated from LSH signatures alone

	// cell memo: the matrix-cell invalidation layer (DESIGN.md §12).
	// Matrix/MatrixTiered memoise every computed cell under (per-side
	// metric hash, metric, costs, policy); warm re-sweeps recompute only
	// cells whose key changed. nil when the engine is cache-less, so raw
	// benchmarks measure raw work. The incremental accounting mirrors the
	// tier accounting: engine-lifetime atomics plus incr.* obs counters.
	cellMu   sync.Mutex
	cellMemo map[cellKey]cellVal

	unitsReused        atomic.Uint64
	unitsReparsed      atomic.Uint64
	cellsReused        atomic.Uint64
	cellsRecomputed    atomic.Uint64
	obsCellsReused     *obs.Counter // incr.cells_reused — matrix cells served from the cell memo
	obsCellsRecomputed *obs.Counter // incr.cells_recomputed — matrix cells recomputed

	// Subtree-block accounting (DESIGN.md §13): how many keyroot blocks
	// the cache's subtree memo restored versus recomputed inside this
	// engine's matrix sweeps — the sub-cell dirty set behind each
	// recomputed cell. Fed per sweep from cache-stats deltas in
	// matrixMemo, mirrored into the incr.* obs counters.
	subBlocksReused     atomic.Uint64
	subBlocksRecomputed atomic.Uint64
	obsSubReused        *obs.Counter // incr.subtree_blocks_reused
	obsSubRecomputed    *obs.Counter // incr.subtree_blocks_recomputed
}

// NewEngine returns an engine with the given worker-pool bound and a fresh
// shared cache. workers <= 0 selects runtime.NumCPU().
func NewEngine(workers int) *Engine {
	return NewEngineStore(workers, ted.NewCache(), nil, nil)
}

// NewEngineStore returns an engine over an explicit cache, observability
// recorder and persistent artifact store; a nil argument turns that layer
// off. A nil cache disables caching (raw parallel speedup only). A
// recorder makes the worker pool record task latency and queue depth,
// Matrix/FromBase emit span trees, and the cache feed the ted.* counters;
// without one every hook is a pointer check. A store backs the cache and
// the index pipeline: TED misses read through to (and write behind into)
// its distance tier, and IndexCodebase warm-starts from its index tier.
// The engine does not own the store — the caller must Close it to drain
// pending writes.
func NewEngineStore(workers int, cache *ted.Cache, rec *obs.Recorder, st *store.Store) *Engine {
	e := &Engine{workers: ResolveWorkers(workers), cache: cache, rec: rec}
	if cache != nil {
		e.cellMemo = map[cellKey]cellVal{}
	}
	if rec != nil {
		if cache != nil {
			cache.SetRecorder(rec)
		}
		e.tasks = rec.Counter("engine.tasks")
		e.cells = rec.Counter("engine.cells")
		e.taskNS = rec.Histogram("engine.task_ns")
		e.queueDepth = rec.Histogram("engine.queue_depth")
		e.obsTierPairs = rec.Counter("ted.tier_pairs")
		e.obsTierExact = rec.Counter("ted.tier_exact")
		e.obsTierEst = rec.Counter("ted.tier_estimated")
		e.obsTierFar = rec.Counter("ted.tier_far")
		e.obsCellsReused = rec.Counter("incr.cells_reused")
		e.obsCellsRecomputed = rec.Counter("incr.cells_recomputed")
		e.obsSubReused = rec.Counter("incr.subtree_blocks_reused")
		e.obsSubRecomputed = rec.Counter("incr.subtree_blocks_recomputed")
	}
	if st != nil {
		e.astore = st
		st.SetRecorder(rec)
		if cache != nil {
			cache.SetStore(st)
		}
	}
	return e
}

// workerLogOnce backs the log-once guarantee of ResolveWorkers.
var workerLogOnce sync.Once

// ResolveWorkers maps a requested worker count onto the bound the pool
// actually uses: values <= 0 select runtime.NumCPU(), and values above
// NumCPU clamp down to it (extra goroutines cannot speed up the CPU-bound
// TED work). The first resolution that changes the requested value is
// logged once per process, so `-workers 0` / oversubscribed runs say what
// they actually got.
func ResolveWorkers(requested int) int {
	n := runtime.NumCPU()
	resolved := requested
	if requested <= 0 || requested > n {
		resolved = n
	}
	if resolved != requested {
		workerLogOnce.Do(func() {
			log.Printf("core: worker pool resolved to %d (requested %d, NumCPU %d)", resolved, requested, n)
		})
	}
	return resolved
}

// Workers returns the resolved worker-pool bound actually in use.
func (e *Engine) Workers() int { return e.workers }

// Recorder returns the engine's observability recorder (nil when
// observability is off).
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Cache returns the engine's shared TED cache (nil when caching is off).
func (e *Engine) Cache() *ted.Cache { return e.cache }

// CacheStats reports the shared cache's effectiveness counters.
func (e *Engine) CacheStats() ted.CacheStats {
	if e.cache == nil {
		return ted.CacheStats{}
	}
	return e.cache.Stats()
}

// dist returns the exact-TED function the engine's divergence calls use.
func (e *Engine) dist() distFunc {
	if e.cache == nil {
		return ted.Distance
	}
	return e.cache.Distance
}

// Diverge is the engine form of Diverge: identical results, cached TED.
func (e *Engine) Diverge(a, b *Index, metric string) (Divergence, error) {
	return divergeWith(a, b, metric, e.dist())
}

// DivergeWithCosts is the engine form of DivergeWithCosts.
func (e *Engine) DivergeWithCosts(a, b *Index, metric string, costs ted.Costs) (Divergence, error) {
	if e.cache == nil {
		return DivergeWithCosts(a, b, metric, costs)
	}
	return divergeWithCosts(a, b, metric, costs, e.cache.DistanceWithCosts)
}

// ApproxDiverge is the engine form of ApproxDiverge: pq-gram profiles and
// pair distances are memoised in the shared cache.
func (e *Engine) ApproxDiverge(a, b *Index, metric string) (Divergence, error) {
	if e.cache == nil {
		return ApproxDiverge(a, b, metric)
	}
	return approxDivergeWith(a, b, metric, e.cache.ApproxDistance)
}

// Matrix computes the same pairwise matrix as the package-level Matrix,
// with the upper-triangle cells distributed over the worker pool. Output
// is deterministic regardless of scheduling: every cell (i,j) is a pure
// function of the pair, each worker writes only its own cells, and errors
// are reported in the same order the serial loop would encounter them.
// With a cache attached, cells read through the engine's cell memo
// (DESIGN.md §12): a warm re-sweep after an edit recomputes only the
// cells whose metric-hash pair changed and serves the rest bit-identically
// from the memo.
func (e *Engine) Matrix(idxs map[string]*Index, order []string, metric string) ([][]float64, error) {
	return e.matrixMemo(context.Background(), idxs, order, metric, ted.UnitCosts(), "")
}

// MatrixCtx is Matrix under a cancellation context: the sweep checks ctx
// at every task grant and returns ctx.Err() once canceled. A canceled
// sweep publishes nothing to the engine's cell memo — completed cells are
// discarded along with the rest, so the memo only ever holds cells from
// sweeps that ran to completion. Individual TED distances finished before
// the cancellation remain in the shared cache; each is a complete exact
// result, so a later identical request stays bit-identical to cold.
func (e *Engine) MatrixCtx(ctx context.Context, idxs map[string]*Index, order []string, metric string) ([][]float64, error) {
	return e.matrixMemo(ctx, idxs, order, metric, ted.UnitCosts(), "")
}

// MatrixWithCosts is Matrix under a non-unit TED cost model (tree metrics
// only, like DivergeWithCosts). Cells are memoised under the cost model,
// so sweeps under different costs never share cells — a cached cell keyed
// under old costs is unreachable from a new cost model by construction.
func (e *Engine) MatrixWithCosts(idxs map[string]*Index, order []string, metric string, costs ted.Costs) ([][]float64, error) {
	return e.matrixMemo(context.Background(), idxs, order, metric, costs, "")
}

// matrixMemo is the shared memoised sweep behind Matrix and
// MatrixWithCosts. policy is the rendered tier policy for keying ("" on
// the exact path; MatrixTiered keys its own cells).
func (e *Engine) matrixMemo(ctx context.Context, idxs map[string]*Index, order []string, metric string, costs ted.Costs, policy string) ([][]float64, error) {
	n := len(order)
	for _, name := range order {
		if _, ok := idxs[name]; !ok {
			return nil, fmt.Errorf("core: no index for model %q", name)
		}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	type cell struct{ i, j int }
	var cells []cell
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cells = append(cells, cell{i, j})
		}
	}
	sp := e.rec.Start("engine.matrix").Arg("metric", metric)
	e.cells.Add(int64(len(cells)))

	// Memo pass: serve clean cells, keep the dirty ones as work. The
	// metric hash per side is computed once per sweep; map lookups are
	// serial (they are nanoseconds next to any recomputation).
	work := cells
	var keys []cellKey
	if e.cellMemo != nil {
		hs := make([]store.ContentHash, n)
		for i, name := range order {
			hs[i] = MetricHash(idxs[name], metric)
		}
		work = work[:0:0]
		reused := 0
		keys = make([]cellKey, 0, len(cells))
		for _, c := range cells {
			key := cellKey{a: hs[c.i], b: hs[c.j], metric: metric, costs: costs, policy: policy}
			if v, ok := e.cellLookup(key); ok {
				m[c.i][c.j], m[c.j][c.i] = v.norm, v.rev
				reused++
				continue
			}
			work = append(work, c)
			keys = append(keys, key)
		}
		e.countCells(reused, len(work))
	}

	var subPre ted.CacheStats
	if e.cache != nil {
		subPre = e.cache.Stats()
	}
	errs := make([]error, len(work))
	vals := make([]cellVal, len(work))
	ctxErr := e.runParallel(ctx, len(work), sp, "engine.cell", func(k int) {
		i, j := work[k].i, work[k].j
		ia, ib := idxs[order[i]], idxs[order[j]]
		var d Divergence
		var err error
		if costs == ted.UnitCosts() {
			d, err = e.Diverge(ia, ib, metric)
		} else {
			d, err = e.DivergeWithCosts(ia, ib, metric, costs)
		}
		if err != nil {
			errs[k] = err
			return
		}
		switch metric {
		case MetricSLOC, MetricLLOC:
			m[i][j] = d.Norm
			m[j][i] = d.Norm
		default:
			m[i][j] = d.Norm
			m[j][i] = safeDiv(d.Raw, Weight(ia, metric))
		}
		vals[k] = cellVal{norm: m[i][j], rev: m[j][i]}
	})
	sp.End()
	if e.cache != nil {
		subPost := e.cache.Stats()
		e.countSubBlocks(subPost.SubtreeHits-subPre.SubtreeHits,
			subPost.SubtreeMisses-subPre.SubtreeMisses)
	}
	if ctxErr != nil {
		// Canceled mid-sweep: the vals slots of unstarted cells are zero
		// and must never reach the memo, so the whole sweep publishes
		// nothing (all-or-nothing, like the store's index records).
		return nil, ctxErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if keys != nil {
		for k := range work {
			e.cellStore(keys[k], vals[k])
		}
	}
	return m, nil
}

// FromBase computes the same per-model divergence-from-base map as the
// package-level FromBase, one model per worker-pool task.
func (e *Engine) FromBase(idxs map[string]*Index, base string, order []string, metric string) (map[string]float64, error) {
	return e.FromBaseCtx(context.Background(), idxs, base, order, metric)
}

// FromBaseCtx is FromBase under a cancellation context: ctx is checked at
// every task grant, and a canceled sweep returns ctx.Err() with no output
// map (the same discard-partials rule as MatrixCtx).
func (e *Engine) FromBaseCtx(ctx context.Context, idxs map[string]*Index, base string, order []string, metric string) (map[string]float64, error) {
	ib, ok := idxs[base]
	if !ok {
		return nil, fmt.Errorf("core: no index for base model %q", base)
	}
	for _, name := range order {
		if _, ok := idxs[name]; !ok {
			return nil, fmt.Errorf("core: no index for model %q", name)
		}
	}
	sp := e.rec.Start("engine.frombase").Arg("metric", metric).Arg("base", base)
	vals := make([]float64, len(order))
	errs := make([]error, len(order))
	ctxErr := e.runParallel(ctx, len(order), sp, "engine.compare", func(k int) {
		d, err := e.Diverge(ib, idxs[order[k]], metric)
		if err != nil {
			errs[k] = err
			return
		}
		vals[k] = d.Norm
	})
	sp.End()
	if ctxErr != nil {
		return nil, ctxErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]float64, len(order))
	for k, name := range order {
		out[name] = vals[k]
	}
	return out, nil
}

// IndexCodebase runs the extraction pipeline with the engine's worker
// pool and recorder (equivalent to IndexCodebase with Options.Workers and
// Options.Recorder set). With a persistent store attached, the codebase is
// first looked up in the store's index tier by content hash and options
// digest; misses run the pipeline and persist the result for the next
// run. Non-default option sets (coverage masks, KeepSystemHeaders
// ablations) warm-start too — their digest keys them to their own
// records, so two option sets can never cross-contaminate.
func (e *Engine) IndexCodebase(cb *corpus.Codebase, opts Options) (*Index, error) {
	return e.IndexCodebaseCtx(context.Background(), cb, opts)
}

// IndexCodebaseCtx is IndexCodebase under a cancellation context: the
// per-unit pipeline checks ctx at every task grant, and a canceled run
// returns ctx.Err() without persisting anything — the store's index tier
// only ever receives fully built indexes.
func (e *Engine) IndexCodebaseCtx(ctx context.Context, cb *corpus.Codebase, opts Options) (*Index, error) {
	opts.Workers = e.workers
	if opts.Recorder == nil {
		opts.Recorder = e.rec
	}
	if e.astore != nil {
		return e.indexCodebaseStored(ctx, cb, opts)
	}
	return IndexCodebaseCtx(ctx, cb, opts)
}

// runParallel executes fn(0..n-1) on at most e.workers goroutines under a
// cancellation context. With a single worker (or a single task) it
// degenerates to the serial loop — no goroutines, no synchronisation — so
// serial baselines stay untouched. When the engine carries a recorder,
// each task additionally records a child span under parent, its latency,
// and the queue depth it observed. Cancellation is checked at every task
// grant (see runParallelCtx); the returned error is ctx.Err() when the
// context was canceled, nil otherwise.
func (e *Engine) runParallel(ctx context.Context, n int, parent *obs.Span, spanName string, fn func(int)) error {
	if e.rec != nil {
		inner := fn
		fn = func(i int) {
			e.queueDepth.Observe(int64(n - i))
			start := time.Now()
			tsp := parent.Start(spanName)
			inner(i)
			tsp.End()
			e.taskNS.Observe(time.Since(start).Nanoseconds())
			e.tasks.Add(1)
		}
	}
	return runParallelCtx(ctx, n, e.workers, fn)
}

// runParallelCtx is the shared bounded pool: workers goroutines pull task
// indices off an atomic counter until the range is drained. Tasks must
// write only to their own slots; the final WaitGroup join publishes all
// writes to the caller.
//
// Cancellation is checked at every task grant — before a worker pulls its
// next index — never inside a task: once granted, a task runs to
// completion, so each of its writes (including anything it published to
// the shared TED cache) is a complete, exact result. After cancellation
// the pool therefore stops within at most `workers` further task
// completions and zero further grants, and the returned ctx.Err() tells
// the caller to discard the partially filled output slots rather than
// publish them anywhere.
func runParallelCtx(ctx context.Context, n, workers int, fn func(int)) error {
	done := ctx.Done()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if done != nil {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

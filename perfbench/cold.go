package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/ted"
)

// coldSweep is the cold-sweep workload. Each repetition runs three phases:
//
//	(a) recompute: a fresh engine over an empty store dir indexes every
//	    port, runs the exact T_sem matrix per app, and closes the store
//	    (draining its write-behind queue);
//	(b) reuse: a new engine reopens the filled store and repeats the
//	    sweep (repeated restart_repeats times, each from a fresh engine);
//	(c) aux: a fresh engine with no store runs the tiered sweep at the
//	    design budget.
//
// The timed phases run the engine on cold.workers (one) rather than
// nproc: a sweep on every CPU of a shared host finishes with its slowest
// worker, and its rep-to-rep spread was two to three times that of the
// one-worker sweep. The traced run's decomposition leg still times the
// sweep at one and at nproc workers (core.matrix_ms.wn,
// core.parallel_efficiency).
//
// Checks: (a) is bit-identical to the golden matrices, every (b) is
// bit-identical to (a), and every (c) cell lies within the budget of the
// golden cell.
func coldSweep(r *run) error {
	var apps []*appCorpus
	err := r.timeSetup(func(int) error {
		var err error
		if apps, err = loadCorpus(); err != nil {
			return err
		}
		// Cold warm-up: one exact sweep on a throwaway engine, so the
		// first timed phase does not pay page faults and heap growth
		// alone.
		_, err = sweepAll(nil, core.NewEngine(r.workers), apps)
		return err
	})
	if err != nil {
		return err
	}
	golden := map[string]*goldenMatrix{}
	for _, ac := range apps {
		g, err := loadGolden(ac.name)
		if err != nil {
			return err
		}
		if fmt.Sprint(g.Order) != fmt.Sprint(ac.order) {
			return fmt.Errorf("golden %s: model order %v, corpus has %v", ac.name, g.Order, ac.order)
		}
		golden[ac.name] = g
	}

	nproc := r.workers
	r.workers = params.Cold.Workers
	policy := ted.NewTierPolicy(params.Cold.TierBudget)
	acc := newLayerAcc()
	var before memSnap
	r.windowStart()
	start := time.Now()
	minReps := (minReuseSamples + params.Cold.RestartRepeats - 1) / params.Cold.RestartRepeats
	for rep := 0; rep < minReps || time.Since(start) < r.window; rep++ {
		wasTraced := r.tr != nil
		r.traceStart(time.Since(start))
		if r.tr != nil && !wasTraced {
			before = readMem()
		}
		if err := r.coldRep(apps, golden, policy, rep, acc); err != nil {
			return err
		}
	}
	r.windowEnd()
	r.checked("cold matrices == golden (bit-identical)")
	r.checked("restart matrices == cold matrices (bit-identical)")
	r.checked(fmt.Sprintf("screened cells within %g of golden", policy.Budget))
	if !r.traced {
		return nil
	}
	r.runtimeMetrics(before, readMem(), acc.ops)
	r.reportLayers(acc)

	// Decomposition leg: the engine at one worker and at nproc workers on
	// prebuilt indexes, then the frontend and the uncached DP on the
	// corpus itself.
	refs := map[string]map[string]*core.Index{}
	var pairs []treePair
	var ports []*corpus.Codebase
	for _, ac := range apps {
		idxs, err := referenceIndexes(ac)
		if err != nil {
			return err
		}
		refs[ac.name] = idxs
		pairs = append(pairs, matrixPairs(ac.order, idxs)...)
		for _, m := range ac.order {
			ports = append(ports, ac.ports[m])
		}
	}
	w1, err := r.engineMatrixMS(1, apps, refs, golden)
	if err != nil {
		return err
	}
	wn, err := r.engineMatrixMS(nproc, apps, refs, golden)
	if err != nil {
		return err
	}
	r.metrics["core.matrix_ms.w1"] = w1
	r.metrics["core.matrix_ms.wn"] = wn
	r.metrics["core.parallel_efficiency"] = w1 / (float64(nproc) * wn)
	r.checked("matrices bit-identical at 1 and nproc workers")
	if err := r.decomposeFrontend(ports); err != nil {
		return err
	}
	r.decomposeDP(pairs)
	return r.writeTrace()
}

// minReuseSamples is the least number of restarts a run makes, however
// slow the machine: enough for bench.reuse_p90_ms to have ten samples
// beyond it.
const minReuseSamples = 100

// coldRep runs one cold-sweep repetition and feeds its samples, checks and
// (in the traced part of a traced run) its layer counters.
func (r *run) coldRep(apps []*appCorpus, golden map[string]*goldenMatrix, policy ted.TierPolicy, rep int, acc *layerAcc) error {
	dir := filepath.Join(workDir, "work", fmt.Sprintf("cold-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	traced := r.tr != nil
	root := r.tr.Start("op.cold-rep")
	la := newLayerAcc()

	// (a) cold exact sweep into an empty store.
	t0 := time.Now()
	cold, st, eng, err := storedSweep(root, r.workers, dir, apps)
	if err != nil {
		return err
	}
	r.sample("recompute", time.Since(t0))
	r.attempted++
	for _, ac := range apps {
		if !sameMatrix(cold[ac.name], golden[ac.name].Matrix) {
			r.fail("cold-sweep rep %d: %s cold matrix differs from golden", rep, ac.name)
		}
	}
	memo := eng.CacheStats()
	la.cache(memo, ted.CacheStats{})
	la.store(st)
	la.incr(eng.IncrStats())

	// (b) restarts from the filled store.
	for k := 0; k < params.Cold.RestartRepeats; k++ {
		t0 = time.Now()
		warm, st, eng, err := storedSweep(root, r.workers, dir, apps)
		if err != nil {
			return err
		}
		r.sample("reuse", time.Since(t0))
		r.attempted++
		for _, ac := range apps {
			if !sameMatrix(warm[ac.name], cold[ac.name]) {
				r.fail("cold-sweep rep %d restart %d: %s differs from the cold matrix", rep, k, ac.name)
			}
		}
		la.cache(eng.CacheStats(), ted.CacheStats{})
		la.store(st)
		la.incr(eng.IncrStats())
	}

	// (c) screened sweep: fresh engine, no store, tier budget.
	t0 = time.Now()
	eng = core.NewEngine(r.workers)
	idxs, err := indexAll(root, eng, apps)
	if err != nil {
		return err
	}
	worst := 0.0
	var tier core.TierStats
	for _, ac := range apps {
		sp := root.Start("core.matrix_tiered_ms")
		tm, err := eng.MatrixTiered(idxs[ac.name], ac.order, metric, policy)
		sp.End()
		if err != nil {
			return err
		}
		if e := maxCellError(tm.Values, golden[ac.name].Matrix); e > worst {
			worst = e
		}
		tier.Exact += tm.Stats.Exact
		tier.Estimated += tm.Stats.Estimated
		tier.Far += tm.Stats.Far
	}
	r.sample("aux", time.Since(t0))
	root.End()
	r.attempted++
	if worst > policy.Budget {
		r.fail("cold-sweep rep %d: screened cell error %g exceeds budget %g", rep, worst, policy.Budget)
	}
	la.cache(eng.CacheStats(), ted.CacheStats{})
	la.incr(eng.IncrStats())
	la.add("ted.tier_exact", float64(tier.Exact))
	la.add("ted.tier_estimated", float64(tier.Estimated))
	la.add("ted.tier_far", float64(tier.Far))
	la.max("ted.tier.max_cell_error", worst)
	la.max("ted.memo_bytes", memoBytes(memo))
	if traced {
		acc.merge(la)
	}
	return nil
}

// storedSweep opens the store at dir, indexes every port and sweeps every
// app's exact matrix on a fresh engine over it, then closes the store.
func storedSweep(root *obs.Span, workers int, dir string, apps []*appCorpus) (map[string][][]float64, store.Stats, *core.Engine, error) {
	sp := root.Start("store.open_ms")
	st, err := store.Open(dir, store.Options{})
	sp.End()
	if err != nil {
		return nil, store.Stats{}, nil, err
	}
	eng := core.NewEngineStore(workers, ted.NewCache(), nil, st)
	out, err := sweepAll(root, eng, apps)
	sp = root.Start("store.close_ms")
	cerr := st.Close()
	sp.End()
	if err == nil {
		err = cerr
	}
	return out, st.Stats(), eng, err
}

// indexAll indexes every port of every app on an engine, each call wrapped
// in a core.index_ms span.
func indexAll(root *obs.Span, eng *core.Engine, apps []*appCorpus) (map[string]map[string]*core.Index, error) {
	out := map[string]map[string]*core.Index{}
	for _, ac := range apps {
		idxs := map[string]*core.Index{}
		for _, m := range ac.order {
			sp := root.Start("core.index_ms")
			idx, err := eng.IndexCodebase(ac.ports[m], core.Options{})
			sp.End()
			if err != nil {
				return nil, err
			}
			idxs[m] = idx
		}
		out[ac.name] = idxs
	}
	return out, nil
}

// sweepAll indexes every port and runs every app's exact matrix.
func sweepAll(root *obs.Span, eng *core.Engine, apps []*appCorpus) (map[string][][]float64, error) {
	idxs, err := indexAll(root, eng, apps)
	if err != nil {
		return nil, err
	}
	out := map[string][][]float64{}
	for _, ac := range apps {
		sp := root.Start("core.matrix_ms")
		m, err := eng.Matrix(idxs[ac.name], ac.order, metric)
		sp.End()
		if err != nil {
			return nil, err
		}
		out[ac.name] = m
	}
	return out, nil
}

// engineMatrixMS times every app's exact matrix on a fresh cached engine
// with the given worker count over prebuilt indexes, checking the result
// against the golden matrices.
func (r *run) engineMatrixMS(workers int, apps []*appCorpus, idxs map[string]map[string]*core.Index, golden map[string]*goldenMatrix) (float64, error) {
	runtime.GC()
	eng := core.NewEngine(workers)
	t0 := time.Now()
	out := map[string][][]float64{}
	for _, ac := range apps {
		m, err := eng.Matrix(idxs[ac.name], ac.order, metric)
		if err != nil {
			return 0, err
		}
		out[ac.name] = m
	}
	elapsed := time.Since(t0)
	r.attempted++
	for _, ac := range apps {
		if !sameMatrix(out[ac.name], golden[ac.name].Matrix) {
			r.fail("engine at %d workers: %s matrix differs from golden", workers, ac.name)
		}
	}
	return float64(elapsed.Nanoseconds()) / 1e6, nil
}

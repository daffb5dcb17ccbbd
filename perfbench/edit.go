package main

import (
	"fmt"
	"time"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/ted"
)

// editLoop is the edit-loop workload: a watch-style loop on one warm
// engine. Each cycle runs a no-edit tick (reuse) and then one step: a
// seeded one-function edit of one port (recompute) — append a function to
// a unit, or change one numeric literal — or a revert that restores the
// most recently edited port to its earlier content (aux). Steps run
// depth edits, then depth reverts, over and over. After every
// tick and step, every port is re-indexed incrementally and both apps'
// exact matrices are re-swept on the engine.
//
// Checks: a no-edit tick reproduces the previous matrices bit-for-bit;
// every state seen before (every revert lands on one) reproduces its
// recorded matrices bit-for-bit; after the window, the final matrices equal
// the uncached core.Matrix over non-incremental indexes.
func editLoop(r *run) error {
	var apps []*appCorpus
	var eng *core.Engine
	var idxs map[string]map[string]*core.Index
	err := r.timeSetup(func(int) error {
		var err error
		if apps, err = loadCorpus(); err != nil {
			return err
		}
		eng = core.NewEngine(r.workers)
		if idxs, err = indexAll(nil, eng, apps); err != nil {
			return err
		}
		_, err = r.resweep(nil, eng, apps, idxs)
		return err
	})
	if err != nil {
		return err
	}
	last, err := r.resweep(nil, eng, apps, idxs)
	if err != nil {
		return err
	}
	seen := map[store.ContentHash]map[string][][]float64{stateKey(apps): last}

	type undo struct {
		port       *corpus.Codebase
		file, prev string
	}
	var stack []undo
	var edits int
	decks := map[string][]editTarget{}
	dealt := map[editTarget]int{} // how often each target was dealt
	var reverting bool
	acc := newLayerAcc()
	var memBefore memSnap
	var cacheBefore ted.CacheStats
	var incrBefore core.IncrStats
	r.windowStart()
	start := time.Now()
	for time.Since(start) < r.window || len(r.samples["recompute"])+len(r.untracedPrimary) == 0 {
		wasTraced := r.tr != nil
		r.traceStart(time.Since(start))
		if r.tr != nil && !wasTraced {
			memBefore, cacheBefore, incrBefore = readMem(), eng.CacheStats(), eng.IncrStats()
		}

		// No-edit tick.
		root := r.tr.Start("op.noedit")
		t0 := time.Now()
		ms, err := r.resweep(root, eng, apps, idxs)
		if err != nil {
			return err
		}
		r.sample("reuse", time.Since(t0))
		root.End()
		r.attempted++
		if !sameMatrices(ms, last) {
			r.fail("edit-loop: a no-edit tick changed the matrices")
		}

		// Step: depth edits, then depth reverts, in a fixed pattern. Edits
		// go through the design's app cycle, and each edit's port, unit and
		// kind are dealt from the app's deck (see nextEdit), so every seed
		// runs the same mix; the constants are seeded.
		class, name := "recompute", "op.edit"
		revert := len(stack) > 0 && (len(stack) >= params.Edit.Depth || reverting)
		reverting = revert && len(stack) > 1
		if revert {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			u.port.Files[u.file] = u.prev
			class, name = "aux", "op.revert"
		} else {
			pattern := params.Traffic.AppCycle
			ac := appNamed(apps, pattern[edits%len(pattern)])
			t := r.nextEdit(ac, decks)
			port := ac.ports[t.port]
			file, prev := randomEdit(r.rng, port, t.literal, t.unit, dealt[t])
			dealt[t]++
			stack = append(stack, undo{port: port, file: file, prev: prev})
			edits++
		}
		root = r.tr.Start(name)
		t0 = time.Now()
		ms, err = r.resweep(root, eng, apps, idxs)
		if err != nil {
			return err
		}
		r.sample(class, time.Since(t0))
		root.End()
		r.attempted++
		if r.tr != nil {
			acc.ops += 2
		}
		key := stateKey(apps)
		if prev, ok := seen[key]; ok {
			if !sameMatrices(ms, prev) {
				r.fail("edit-loop: a revisited state produced different matrices")
			}
		} else if revert {
			r.fail("edit-loop: a revert reached a state never recorded")
		} else {
			seen[key] = ms
		}
		last = ms
	}
	r.windowEnd()
	r.checked("no-edit ticks reproduce the previous matrices (bit-identical)")
	r.checked("reverts reproduce their recorded matrices (bit-identical)")

	// Final state against the reference path.
	var ports []*corpus.Codebase
	var pairs []treePair
	r.attempted++
	for _, ac := range apps {
		ref, err := referenceIndexes(ac)
		if err != nil {
			return err
		}
		want, err := core.Matrix(ref, ac.order, metric)
		if err != nil {
			return err
		}
		if !sameMatrix(last[ac.name], want) {
			r.fail("edit-loop: final %s matrix differs from the uncached reference", ac.name)
		}
		for _, m := range ac.order {
			ports = append(ports, ac.ports[m])
		}
		pairs = append(pairs, matrixPairs(ac.order, ref)...)
	}
	r.checked("final matrices == uncached core.Matrix on non-incremental indexes")
	if !r.traced {
		return nil
	}
	r.runtimeMetrics(memBefore, readMem(), acc.ops)
	acc.cache(eng.CacheStats(), cacheBefore)
	acc.incr(eng.IncrStats().Delta(incrBefore))
	acc.max("ted.memo_bytes", memoBytes(eng.CacheStats()))
	r.reportLayers(acc)
	if err := r.decomposeFrontend(ports); err != nil {
		return err
	}
	r.decomposeDP(pairs)
	return r.writeTrace()
}

// editTarget is where one edit goes: a port, the unit randomEdit starts
// from, and the edit kind.
type editTarget struct {
	port    string
	unit    int
	literal bool
}

// nextEdit deals the next edit target of an app from its deck, which holds
// every port, unit and kind combination once in seeded order; an empty
// deck is refilled. Drawing targets independently would give each seed a
// different share of cheap and expensive edits, and the edit latency's
// median would move with it. For the same reason a literal change rewrites
// the target's literals in turn (the k-th time a target is dealt, its k-th
// literal) rather than a seeded one: with a seeded literal, the edit
// median's spread over five seeds was 0.23 of its median, with literals in
// turn 0.09.
func (r *run) nextEdit(ac *appCorpus, decks map[string][]editTarget) editTarget {
	d := decks[ac.name]
	if len(d) == 0 {
		for _, m := range ac.order {
			for u := range ac.ports[m].Units {
				d = append(d, editTarget{m, u, true}, editTarget{m, u, false})
			}
		}
		r.rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	}
	decks[ac.name] = d[1:]
	return d[0]
}

// resweep re-indexes every port incrementally against its prior index and
// re-sweeps every app's exact matrix on the warm engine.
func (r *run) resweep(root *obs.Span, eng *core.Engine, apps []*appCorpus, idxs map[string]map[string]*core.Index) (map[string][][]float64, error) {
	out := map[string][][]float64{}
	for _, ac := range apps {
		for _, m := range ac.order {
			sp := root.Start("core.index_ms")
			idx, _, err := eng.IndexCodebaseIncremental(ac.ports[m], idxs[ac.name][m], core.Options{})
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("reindex %s/%s: %w", ac.name, m, err)
			}
			idxs[ac.name][m] = idx
		}
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

// stateKey content-addresses the whole corpus as it stands.
func stateKey(apps []*appCorpus) store.ContentHash {
	h := store.NewHasher()
	for _, ac := range apps {
		for _, m := range ac.order {
			c := core.CodebaseContentHash(ac.ports[m])
			h.WriteUint64(c.H1)
			h.WriteUint64(c.H2)
		}
	}
	return h.Sum()
}

// sameMatrices compares two per-app matrix sets bit-for-bit.
func sameMatrices(a, b map[string][][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, m := range a {
		if !sameMatrix(m, b[k]) {
			return false
		}
	}
	return true
}

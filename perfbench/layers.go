package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/minifortran"
	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

// layerAcc accumulates per-layer counters over the traced operations of a
// window. Sums are reported per operation; maxima as they stand. Names
// starting with "_" are inputs to ratios and are not reported themselves.
type layerAcc struct {
	ops  int
	sums map[string]float64
	maxs map[string]float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sums: map[string]float64{}, maxs: map[string]float64{}}
}

func (a *layerAcc) add(name string, v float64) { a.sums[name] += v }

func (a *layerAcc) max(name string, v float64) {
	if v > a.maxs[name] {
		a.maxs[name] = v
	}
}

// merge folds one operation's counters into the window's.
func (a *layerAcc) merge(o *layerAcc) {
	a.ops++
	for k, v := range o.sums {
		a.sums[k] += v
	}
	for k, v := range o.maxs {
		a.max(k, v)
	}
}

// cache adds the TED cache traffic between two snapshots.
func (a *layerAcc) cache(after, before ted.CacheStats) {
	d := func(x, y uint64) float64 { return float64(x - y) }
	a.add("ted.cache.hits", d(after.Hits, before.Hits))
	a.add("ted.cache.misses", d(after.Misses, before.Misses))
	a.add("_flat_hits", d(after.FlatHits, before.FlatHits))
	a.add("_flat_misses", d(after.FlatMisses, before.FlatMisses))
	a.add("ted.subtree_blocks_hit", d(after.SubtreeHits, before.SubtreeHits))
	a.add("ted.subtree_blocks_miss", d(after.SubtreeMisses, before.SubtreeMisses))
	a.add("ted.ckpt_rows_hit", d(after.CheckpointHits, before.CheckpointHits))
	a.add("ted.ckpt_rows_miss", d(after.CheckpointMisses, before.CheckpointMisses))
	a.add("ted.probe_rows_hit", d(after.ProbeRowHits, before.ProbeRowHits))
	a.add("ted.probe_rows_miss", d(after.ProbeRowMisses, before.ProbeRowMisses))
}

// store adds one store's traffic.
func (a *layerAcc) store(s store.Stats) {
	a.add("store.hits", float64(s.Hits))
	a.add("store.misses", float64(s.Misses))
	a.add("store.bytes_read", float64(s.BytesRead))
	a.add("store.bytes_written", float64(s.BytesWritten))
	a.add("store.flushes", float64(s.Flushes))
}

// incr adds incremental-layer and cell-memo traffic.
func (a *layerAcc) incr(s core.IncrStats) {
	a.add("incr.units_reused", float64(s.UnitsReused))
	a.add("incr.units_reparsed", float64(s.UnitsReparsed))
	a.add("incr.cells_reused", float64(s.CellsReused))
	a.add("incr.cells_recomputed", float64(s.CellsRecomputed))
}

// memoBytes is the resident size of the TED layer's sub-cell memos.
func memoBytes(s ted.CacheStats) float64 {
	return float64(s.SubtreeBytes + s.CheckpointBytes + s.ProbeRowBytes)
}

func ratio(hit, miss float64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

// reportLayers turns a window's counters into per-operation metrics.
func (r *run) reportLayers(a *layerAcc) {
	if a.ops == 0 {
		return
	}
	s := a.sums
	for k, v := range s {
		if k[0] != '_' {
			r.metrics[k] = v / float64(a.ops)
		}
	}
	for k, v := range a.maxs {
		r.metrics[k] = v
	}
	r.metrics["ted.cache.hit_ratio"] = ratio(s["ted.cache.hits"], s["ted.cache.misses"])
	r.metrics["ted.flat_memo.hit_ratio"] = ratio(s["_flat_hits"], s["_flat_misses"])
	r.metrics["ted.subtree_blocks.hit_ratio"] = ratio(s["ted.subtree_blocks_hit"], s["ted.subtree_blocks_miss"])
	r.metrics["incr.cell_hit_ratio"] = ratio(s["incr.cells_reused"], s["incr.cells_recomputed"])
}

// --- spans --------------------------------------------------------------------

// selfTimes reports each traced layer's self time per operation: a span's
// duration minus the time its children cover. Root spans are operations;
// their own self time is the residual the benchmark cannot attribute to a
// layer, so the layer self times plus bench.residual_ms add up to
// bench.op_ms exactly.
func (r *run) selfTimes() {
	spans := r.spans.Spans()
	children := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Dur
		}
	}
	self := map[string]time.Duration{}
	var roots int
	var rootDur, rootSelf time.Duration
	for _, s := range spans {
		d := s.Dur - children[s.ID]
		if s.Parent == 0 {
			roots++
			rootDur += s.Dur
			rootSelf += d
			continue
		}
		self[s.Name] += d
	}
	if roots == 0 {
		return
	}
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / float64(roots) }
	for name, d := range self {
		r.metrics[name] = perOp(d)
	}
	r.metrics["bench.op_ms"] = perOp(rootDur)
	r.metrics["bench.residual_ms"] = perOp(rootSelf)
}

// writeTrace writes the run's spans as a Chrome trace file under the
// build directory.
func (r *run) writeTrace() error {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed)))
	if err != nil {
		return err
	}
	if err := r.spans.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- decomposition leg ----------------------------------------------------------

// decompPasses is how often the frontend decomposition runs; each phase
// reports its median pass total.
const decompPasses = 5

// pipelineSpans maps the spans the indexing pipeline emits per unit to the
// per-layer metrics they feed.
var pipelineSpans = map[string]string{
	"frontend.preprocess": "frontend.preprocess_ms",
	"frontend.lex":        "frontend.lex_ms",
	"frontend.parse":      "frontend.parse_ms",
	"frontend.srctree":    "frontend.srctree_ms",
	"frontend.sem":        "frontend.sem_ms",
	"frontend.inline":     "frontend.inline_ms",
	"ir.lower":            "ir.lower_ms",
}

// decomposeFrontend indexes a set of codebases with core.IndexCodebase on
// one worker and reads the frontend and IR phase times from the spans the
// pipeline itself emits, then times tree.Fingerprint over every tree the
// index holds (the fingerprint is not cached on the tree). Sizes come from
// the pipeline's counters and the returned trees.
func (r *run) decomposeFrontend(cbs []*corpus.Codebase) error {
	passes := map[string][]float64{}
	for pass := 0; pass < decompPasses; pass++ {
		rec := obs.NewRecorder()
		ms := map[string]time.Duration{}
		var tsemNodes, irNodes, instrs, fortranTokens int
		for _, cb := range cbs {
			idx, err := core.IndexCodebase(cb, core.Options{Workers: 1, Recorder: rec})
			if err != nil {
				return fmt.Errorf("decompose %s/%s: %w", cb.App, cb.Model, err)
			}
			for _, u := range idx.Units {
				t0 := time.Now()
				for _, t := range u.Trees {
					t.Fingerprint()
				}
				ms["tree.fingerprint_ms"] += time.Since(t0)
				tsemNodes += u.Trees[core.MetricTsem].Size()
				irNodes += u.Trees[core.MetricTir].Size()
				instrs += irInstrs(u.Trees[core.MetricTir])
				if cb.Lang == corpus.LangFortran {
					// The Fortran parser counts no tokens; count its lexer's.
					for _, l := range minifortran.LexLines(cb.Files[u.File], u.File) {
						fortranTokens += len(l.Tokens)
					}
				}
			}
		}
		for _, s := range rec.Spans() {
			if name, ok := pipelineSpans[s.Name]; ok {
				ms[name] += s.Dur
			}
		}
		for _, name := range pipelineSpans {
			passes[name] = append(passes[name], float64(ms[name].Nanoseconds())/1e6)
		}
		passes["tree.fingerprint_ms"] = append(passes["tree.fingerprint_ms"], float64(ms["tree.fingerprint_ms"].Nanoseconds())/1e6)
		if pass == 0 {
			r.metrics["frontend.tokens"] = float64(rec.Counter("frontend.tokens").Value()) + float64(fortranTokens)
			r.metrics["frontend.pp_lines"] = float64(rec.Counter("frontend.pp_lines").Value())
			r.metrics["frontend.tsem_nodes"] = float64(tsemNodes)
			r.metrics["ir.instrs"] = float64(instrs)
			r.metrics["ir.tree_nodes"] = float64(irNodes)
		}
	}
	for name, xs := range passes {
		r.metrics[name] = median(xs)
	}
	return nil
}

// irInstrs counts the instructions of a T_ir tree, which are the children
// of its block nodes (unit:ir → module → function → block → instruction).
func irInstrs(t *tree.Node) int {
	n := 0
	t.Walk(func(x *tree.Node) bool {
		if x.Label == "block" {
			n += len(x.Children)
			return false
		}
		return true
	})
	return n
}

// matrixPairs lists the unit tree pairs every cell of an app's matrix
// computes exactly.
func matrixPairs(order []string, idxs map[string]*core.Index) []treePair {
	var out []treePair
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			out = append(out, unitPairs(idxs[order[i]], idxs[order[j]])...)
		}
	}
	return out
}

// decomposeDP times the uncached Zhang–Shasha DP (package-level
// ted.Distance) over the distinct tree pairs of the workload, and counts
// the DP cells it computes: the sum of (n1+1)(n2+1) over those pairs.
func (r *run) decomposeDP(pairs []treePair) {
	type key struct{ a, b tree.Fingerprint }
	seen := map[key]bool{}
	var dp time.Duration
	var n, cells float64
	for _, p := range pairs {
		fa, fb := p.a.Fingerprint(), p.b.Fingerprint()
		if fb.Less(fa) {
			fa, fb = fb, fa
		}
		if seen[key{fa, fb}] {
			continue
		}
		seen[key{fa, fb}] = true
		t0 := time.Now()
		ted.Distance(p.a, p.b)
		dp += time.Since(t0)
		n++
		cells += float64(p.a.Size()+1) * float64(p.b.Size()+1)
	}
	r.metrics["ted.dp_ms"] = float64(dp.Nanoseconds()) / 1e6
	r.metrics["ted.pairs"] = n
	r.metrics["ted.dp_cells"] = cells
}

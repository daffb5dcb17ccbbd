package silvervale

// Tier-policy calibration harness (skipped unless explicitly invoked):
// dumps per-pair statistics for the corpus-scale all-units sweep —
// sizes, label-multiset intersection, pq-gram distance, exact TED, DP
// wall-clock — as CSV so the tier policy's thresholds and the
// structural estimator's coefficients (internal/ted/tier.go) can be
// refit offline when the corpus or the tree builders change. Gated by
// SILVERVALE_PR6_PROBE=<out.csv>; SILVERVALE_PR6_METRIC selects the
// tree metric (default tsem); SILVERVALE_PR6_APPROX_ONLY=1 skips the
// exact column for a fast approximate-distance survey. The full tsem
// probe runs the exact DP on all ~4.4k pairs (~10 min).

import (
	"fmt"
	"os"
	"testing"
	"time"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

// pr6Units builds the corpus-scale unit population: every unit of every
// app × model wrapped as a single-unit Index under one shared role, so
// the engine's matrix sweep pairs all of them — the all-pairs
// near-duplicate workload. Order is the deterministic corpus iteration
// order.
func pr6Units(t testing.TB) (map[string]*core.Index, []string) {
	t.Helper()
	idxs := map[string]*core.Index{}
	var order []string
	for _, app := range corpus.Apps() {
		for _, m := range corpus.ModelsFor(app) {
			cb, err := corpus.Generate(app, m)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := core.IndexCodebase(cb, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range idx.Units {
				u := idx.Units[i]
				if u.Trees[core.MetricTsem] == nil {
					continue
				}
				u.Role = "unit" // one shared role: match() pairs every unit
				name := fmt.Sprintf("%s/%s/%s", app.Name, m, u.File)
				idxs[name] = &core.Index{
					Codebase: app.Name, Model: string(m), Lang: idx.Lang,
					Units: []core.UnitIndex{u},
				}
				order = append(order, name)
			}
		}
	}
	return idxs, order
}

func labelMultiset(t *tree.Node) map[string]int {
	m := map[string]int{}
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		m[n.Label]++
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t)
	return m
}

func labelIsect(a, b *tree.Node) int {
	ma, mb := labelMultiset(a), labelMultiset(b)
	n := 0
	for l, ca := range ma {
		if cb := mb[l]; cb < ca {
			n += cb
		} else {
			n += ca
		}
	}
	return n
}

func TestPR6Probe(t *testing.T) {
	out := os.Getenv("SILVERVALE_PR6_PROBE")
	if out == "" {
		t.Skip("set SILVERVALE_PR6_PROBE=<path.csv>")
	}
	metric := os.Getenv("SILVERVALE_PR6_METRIC")
	if metric == "" {
		metric = core.MetricTsem
	}
	approxOnly := os.Getenv("SILVERVALE_PR6_APPROX_ONLY") != ""
	idxs, order := pr6Units(t)
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintln(f, "i,j,n1,n2,isect,approx,exact,ns")
	c := ted.NewCache()
	for i := 0; i < len(order); i++ {
		ta := idxs[order[i]].Units[0].Trees[metric]
		if ta == nil {
			continue
		}
		for j := i + 1; j < len(order); j++ {
			tb := idxs[order[j]].Units[0].Trees[metric]
			if tb == nil {
				continue
			}
			approx := c.ApproxDistance(ta, tb)
			isect := labelIsect(ta, tb)
			exact, ns := -1, int64(0)
			if !approxOnly {
				start := time.Now()
				exact = ted.Distance(ta, tb)
				ns = time.Since(start).Nanoseconds()
			}
			fmt.Fprintf(f, "%d,%d,%d,%d,%d,%.6f,%d,%d\n",
				i, j, ta.Size(), tb.Size(), isect, approx, exact, ns)
		}
	}
}

package core

import (
	"testing"

	"silvervale/internal/corpus"
	"silvervale/internal/tree"
)

// keyrootCosts returns L(t) and R(t): the summed subtree sizes over t's
// left-path keyroots (the root plus every node with a left sibling) and
// over its right-path keyroots (the root plus every node with a right
// sibling). Zhang–Shasha on a pair fills L(a)·L(b) forest cells; run on
// both trees' mirror images it fills R(a)·R(b).
func keyrootCosts(t *tree.Node) (l, r uint64) {
	var walk func(n *tree.Node, left, right bool) uint64
	walk = func(n *tree.Node, left, right bool) uint64 {
		size := uint64(1)
		for k, c := range n.Children {
			size += walk(c, k > 0, k < len(n.Children)-1)
		}
		if left {
			l += size
		}
		if right {
			r += size
		}
		return size
	}
	walk(t, true, true)
	return l, r
}

// TestCorpusPrefersRightPathKeyroots pins the corpus fact behind ted's
// fixed flattening direction (DESIGN.md §6). On T_sem and T_sem+i — the
// largest trees, and the metrics whose sweeps dominate DP time — every
// matched unit pair of every app and model pair does at most the left
// path's work on the right path: R(a)·R(b) <= L(a)·L(b). On T_src,
// T_src+pp and T_ir some pairs prefer the left path, so for those the
// test pins the weaker fact the fixed direction still rests on: summed
// over every tree metric, each app's right-path work is at most its
// left-path work. A corpus that broke either would call for choosing a
// direction (or a full strategy, as RTED does) per pair.
func TestCorpusPrefersRightPathKeyroots(t *testing.T) {
	perPair := map[string]bool{MetricTsem: true, MetricTsemI: true}
	for _, app := range corpus.Apps() {
		idxs, order := indexAll(t, app.Name, Options{})
		var appL, appR float64
		for _, metric := range TreeMetrics() {
			var sumL, sumR float64
			for x, ma := range order {
				for _, mb := range order[x+1:] {
					pairs, _, _ := match(idxs[ma], idxs[mb])
					for _, p := range pairs {
						la, ra := keyrootCosts(p[0].Trees[metric])
						lb, rb := keyrootCosts(p[1].Trees[metric])
						if perPair[metric] && ra*rb > la*lb {
							t.Errorf("%s %s %s/%s unit %s: right-path work %d > left-path %d",
								app.Name, metric, ma, mb, p[0].Role, ra*rb, la*lb)
						}
						sumL += float64(la * lb)
						sumR += float64(ra * rb)
					}
				}
			}
			t.Logf("%s %s: R/L = %.3f", app.Name, metric, sumR/sumL)
			appL += sumL
			appR += sumR
		}
		if appR > appL {
			t.Errorf("%s: right-path work %.4g > left-path %.4g over all tree metrics", app.Name, appR, appL)
		}
	}
}

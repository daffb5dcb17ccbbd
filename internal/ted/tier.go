package ted

import (
	"fmt"
	"math"

	"silvervale/internal/store"
	"silvervale/internal/tree"
)

// Tiered distance evaluation (DESIGN.md §10). The all-pairs divergence
// matrices are O(n²) pairs of quadratic-DP Zhang–Shasha cells, which caps
// how many units a sweep can hold. Program-tree distance distributions are
// structured enough that a cheap approximate pass can route most pairs
// away from the exact DP: under a TierPolicy each tree pair is first
// routed by an LSH minhash signature over its pq-gram profile, then — for
// borderline pairs — by the full pq-gram distance, and only pairs the
// approximation (or the exact bound gates inside the DP path) flag as
// close or borderline pay for exact Zhang–Shasha. Far pairs receive a
// deterministic estimate derived from the approximate distance, clamped
// into the exact distance's provable [lower, upper] interval.
//
// The contract is an error budget, not exactness: at Budget 0 every pair
// routes exact and results are byte-identical to the untiered path (the
// equivalence gate in internal/core pins this); at nonzero budgets the
// exact-vs-tiered harness records per-cell |tiered − exact| and asserts it
// stays within the budget on every seed corpus.

// Tier identifies how one pair's distance was produced.
type Tier uint8

const (
	// TierExact: the pair was (or must be) computed with exact
	// Zhang–Shasha — either the policy is disabled, the pair routed
	// "close or borderline", or the trees are identical (distance 0 is
	// exact by the empty edit script).
	TierExact Tier = iota
	// TierEstimated: the full pq-gram distance flagged the pair as far;
	// the value is the clamped pq-gram estimate.
	TierEstimated
	// TierFar: the LSH signatures alone flagged the pair as provably-far
	// (no shared band and a signature-estimated distance well past the
	// threshold); the profiles were never merged. The value is the
	// clamped signature estimate.
	TierFar
)

// String names the tier for provenance output.
func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierEstimated:
		return "estimated"
	case TierFar:
		return "far"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// Default LSH signature shape: 16 bands of 4 rows. 64 minhash rows keep
// the Jaccard estimator's noise around ±0.06, and a 4-row band fires with
// probability J⁴ — near-duplicates (J ≳ 0.8) collide in some band almost
// surely while far pairs (J ≲ 0.2) almost never do.
const (
	defaultBands = 16
	defaultRows  = 4
)

// farMargin is how far past the routing threshold the noisier
// signature-only estimate must sit before a pair is declared far without
// merging profiles. Borderline signatures always fall through to the full
// pq-gram distance.
const farMargin = 0.05

// tierMinNodes: pairs where either tree is smaller than this are always
// refined exactly. Small trees sit outside the estimator's calibration
// population (the smallest seed unit tree has >150 nodes), a handful of
// edits can push their pq-gram distance across any threshold, and their
// DP is microseconds — estimation carries all of the risk and none of
// the savings.
const tierMinNodes = 128

// TierPolicy configures tiered evaluation. The zero value (Budget 0) is
// the disabled, exact-equivalent policy.
type TierPolicy struct {
	// Budget is the per-matrix-cell error tolerance: the recorded bound
	// on |tiered − exact| for every normalised divergence cell. 0 routes
	// every pair exact.
	Budget float64
	// Threshold is the pq-gram distance at or above which a pair may be
	// estimated instead of refined. Derived from Budget by NewTierPolicy;
	// pairs below it always go exact.
	Threshold float64
	// Bands × Rows is the minhash signature shape used for LSH
	// bucketing.
	Bands, Rows int
}

// screeningBudget is the boundary between the policy's two calibrated
// regimes. Budgets at or above it select the screening threshold: the
// structural estimator's worst observed per-cell error on the all-units
// corpus probe (4371 pairs, every unit of every seed app × model, worst
// normalisation) is ~0.41 at τ = 0.45, so a 0.42 budget covers it.
const (
	screeningBudget    = 0.42
	screeningThreshold = 0.45
)

// NewTierPolicy derives the policy for an error budget. Two calibrated
// regimes (both measured on the seed corpora; see EXPERIMENTS.md):
//
//   - High-fidelity (budget < 0.42): calibrated against matched
//     same-role pairs (all apps × tree metrics, 1206 pairs) — the pair
//     population of app-level divergence sweeps. Worst per-pair error
//     |est − exact|/dmax as a function of the routing threshold τ is
//     ~0.03 at τ = 0.85, ~0.30 at τ = 0.80, ~0.44 at τ = 0.75, so
//     tight budgets push τ toward 0.98 (only near-disjoint pairs are
//     estimated) and looser budgets descend toward the 0.78 floor.
//     Per-cell error is a dmax-weighted average over a cell's matched
//     pairs, so this per-pair calibration is the conservative side of
//     the recorded contract.
//
//   - Screening (budget ≥ 0.42): calibrated against the all-pairs unit
//     population (4371 cross-unit pairs), where even single-pair cells
//     honour the budget: the structural estimator's worst error under
//     the harsher of the two cell normalisations is ~0.41 at τ = 0.45.
//     This is the corpus-scale near-duplicate-screening regime — most
//     DP work is skipped, small distances stay trustworthy, and large
//     ones are calibrated estimates.
func NewTierPolicy(budget float64) TierPolicy {
	if budget <= 0 {
		return TierPolicy{}
	}
	var th float64
	switch {
	case budget >= screeningBudget:
		th = screeningThreshold
	case budget <= 0.05:
		th = 0.98 - 2.6*budget
	default:
		th = 0.85 - 0.2*(budget-0.05)
	}
	if th < 0.78 && budget < screeningBudget {
		th = 0.78
	}
	if th > 0.98 {
		th = 0.98
	}
	return TierPolicy{Budget: budget, Threshold: th, Bands: defaultBands, Rows: defaultRows}
}

// Enabled reports whether the policy routes any pair away from exact.
func (p TierPolicy) Enabled() bool { return p.Budget > 0 }

// normalize fills zero signature dimensions with the defaults so hand-built
// policies and store keys agree with NewTierPolicy's.
func (p TierPolicy) normalize() TierPolicy {
	if p.Bands <= 0 {
		p.Bands = defaultBands
	}
	if p.Rows <= 0 {
		p.Rows = defaultRows
	}
	return p
}

// String renders the policy for stats lines and provenance reports.
func (p TierPolicy) String() string {
	if !p.Enabled() {
		return "budget 0 (exact)"
	}
	return fmt.Sprintf("budget %g, threshold %.3f, lsh %dx%d", p.Budget, p.Threshold, p.Bands, p.Rows)
}

// Signature is a minhash signature over a pq-gram profile: Bands×Rows
// row minima under independent hash seeds. Signatures are pure functions
// of the profile (the gram slice is sorted, so no map-order leaks), which
// is what makes LSH bucket assignment bit-identical across runs and
// worker counts.
type Signature struct {
	rows  []uint64
	bands int
}

// splitmix64 is the finaliser of the splitmix64 generator — a cheap,
// well-mixed 64-bit permutation used both to derive per-row seeds and to
// rehash grams per row.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewSignature computes the minhash signature of a profile. An empty
// profile yields all-max rows (two empties estimate distance 0).
func NewSignature(p PQGramProfile, bands, rows int) Signature {
	n := bands * rows
	sig := Signature{rows: make([]uint64, n), bands: bands}
	for i := range sig.rows {
		sig.rows[i] = math.MaxUint64
	}
	prev := uint64(0)
	first := true
	for _, g := range p.grams {
		if !first && g == prev {
			continue // minhash is over the gram set; duplicates cannot lower a min
		}
		first = false
		prev = g
		for i := range sig.rows {
			if h := splitmix64(g ^ splitmix64(uint64(i)+1)); h < sig.rows[i] {
				sig.rows[i] = h
			}
		}
	}
	return sig
}

// SharesBand reports whether any band of r rows matches in full — the LSH
// bucket collision test: colliding pairs are near-duplicate candidates
// and must be refined exactly.
func SharesBand(a, b Signature) bool {
	if len(a.rows) != len(b.rows) || a.bands != b.bands || a.bands == 0 {
		return false
	}
	rows := len(a.rows) / a.bands
	for band := 0; band < a.bands; band++ {
		match := true
		for r := band * rows; r < (band+1)*rows; r++ {
			if a.rows[r] != b.rows[r] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// EstimateDistance converts two signatures into a pq-gram-distance
// estimate: the row-match fraction estimates Jaccard similarity Ĵ, and
// for set profiles the normalised pq-gram distance is exactly
// (1−J)/(1+J).
func EstimateDistance(a, b Signature) float64 {
	if len(a.rows) == 0 || len(a.rows) != len(b.rows) {
		return 1
	}
	match := 0
	for i := range a.rows {
		if a.rows[i] == b.rows[i] {
			match++
		}
	}
	j := float64(match) / float64(len(a.rows))
	return (1 - j) / (1 + j)
}

// Structural estimator coefficients, fitted on the all-units corpus
// probe (4371 cross-unit pairs, every unit of every seed app × model,
// weighted least squares under the per-cell error norm, residuals stable
// under even/odd holdout — see EXPERIMENTS.md). With mx/mn the
// larger/smaller node count and I the label-multiset intersection:
//
//	est ≈ 0.96·(mx−I) − 0.19·I + (0.60 + 0.12·approx)·mn
//
// Read as: each node whose label has no counterpart must be deleted,
// inserted, or renamed (≈1 op each); the smaller tree's mass costs
// ~0.6–0.7 ops per node even when labels match, because semantic trees
// over small label alphabets are structurally scrambled; a matched label
// recovers only ~0.19 ops. The estimate is clamped into the provable
// [max(|n1−n2|, mx−I), n1+n2] interval (mx−I is a valid unit-cost lower
// bound: any mapping of m pairs has ≥ m−I renames, so cost ≥
// n1+n2−m−I ≥ mx−I).
const (
	calUnmatched = 0.96
	calMatched   = -0.19
	calApprox    = 0.12
	calMin       = 0.60
)

// calibratedRaw is the screening-grade estimate for a far-routed pair
// under unit costs. Non-unit cost models fall back to the scale-based
// estimateRaw — the calibration is in unit edit ops.
func (c *Cache) calibratedRaw(t1, t2 *tree.Node, fa, fb tree.Fingerprint, approx float64, costs Costs) float64 {
	if costs != UnitCosts() {
		return estimateRaw(approx, int(fa.Size), int(fb.Size), costs)
	}
	a := c.flatFor(t1, fa, nil)
	b := c.flatFor(t2, fb, nil)
	sc := getScratch()
	isect := multisetIntersection(a, b, sc)
	putScratch(sc)
	n1, n2 := int(fa.Size), int(fb.Size)
	mx, mn := n1, n2
	if mx < mn {
		mx, mn = mn, mx
	}
	est := calUnmatched*float64(mx-isect) + calMatched*float64(isect) + (calMin+calApprox*approx)*float64(mn)
	lo := float64(mx - mn)
	if l := float64(mx - isect); l > lo {
		lo = l
	}
	if est < lo {
		est = lo
	}
	if hi := float64(n1 + n2); est > hi {
		est = hi
	}
	return est
}

// estimateRaw maps an approximate (or signature-estimated) normalised
// distance in [0,1] onto the exact distance's scale for a pair of trees
// with n1 and n2 nodes, clamped into the provable [|n1−n2|·min(ins,del),
// n1·del+n2·ins] interval. max(n1·del, n2·ins) is the scale at which a
// label-disjoint pair of similar shape lands: distance 1 maps to the
// all-renames-plus-size-delta script.
func estimateRaw(approx float64, n1, n2 int, c Costs) float64 {
	scale := float64(n1 * c.Delete)
	if s := float64(n2 * c.Insert); s > scale {
		scale = s
	}
	est := approx * scale
	diff := n1 - n2
	if diff < 0 {
		diff = -diff
	}
	lo := float64(diff * min(c.Insert, c.Delete))
	hi := float64(n1*c.Delete + n2*c.Insert)
	if est < lo {
		est = lo
	}
	if est > hi {
		est = hi
	}
	return est
}

// sigKey addresses one memoised signature. The shape is part of the key
// so differently-shaped policies never share rows.
type sigKey struct {
	fp          tree.Fingerprint
	bands, rows int
}

// SignatureFor returns the memoised minhash signature of a tree under the
// policy's shape, building profile and signature on first sight.
func (c *Cache) SignatureFor(t *tree.Node, p TierPolicy) Signature {
	p = p.normalize()
	key := sigKey{fp: t.Fingerprint(), bands: p.Bands, rows: p.Rows}
	c.mu.RLock()
	s, ok := c.sigs[key]
	c.mu.RUnlock()
	if ok {
		return s
	}
	s = NewSignature(c.Profile(t), p.Bands, p.Rows)
	c.mu.Lock()
	c.sigs[key] = s
	c.mu.Unlock()
	return s
}

// routeKey addresses one memoised routing decision: the canonicalised
// fingerprint pair, the cost model, and every policy parameter that can
// change the route or the estimate. Differently-parameterised policies
// never share entries.
type routeKey struct {
	a, b              tree.Fingerprint
	costs             Costs
	budget, threshold float64
	bands, rows       int
}

// routeVal is one memoised route: the tier plus, for estimated tiers, the
// clamped estimate.
type routeVal struct {
	est  float64
	tier Tier
}

// TierRoute decides how a pair should be evaluated under a policy without
// running the exact DP. It returns (0, TierExact) when the pair must be
// refined exactly (including the disabled policy), and (estimate, tier)
// when the pair is far enough that the estimate honours the budget. The
// decision and the estimate are pure functions of the two trees and the
// policy — bit-identical across runs, schedulers, and worker counts —
// which is why the whole decision is memoised by content fingerprint
// (DESIGN.md §12): a warm re-sweep skips even the signature comparison
// and multiset-intersection work for every clean pair.
//
// With a persistent store attached, estimated values read through the
// store's tier records — keyed by the full policy (budget, threshold,
// signature shape) alongside the fingerprint pair and cost model, so a
// warm start can never serve an estimate produced under a different
// policy, nor leak estimates into the exact tier.
func (c *Cache) TierRoute(t1, t2 *tree.Node, costs Costs, p TierPolicy) (float64, Tier) {
	if !p.Enabled() || t1 == nil || t2 == nil {
		return 0, TierExact
	}
	p = p.normalize()
	fa, fb := t1.Fingerprint(), t2.Fingerprint()
	key := routeKey{a: fa, b: fb, costs: costs,
		budget: p.Budget, threshold: p.Threshold, bands: p.Bands, rows: p.Rows}
	if costs.Insert == costs.Delete && fb.Less(fa) {
		// Routing and estimation are symmetric exactly when exact TED is.
		key.a, key.b = fb, fa
	}
	c.mu.RLock()
	v, ok := c.routes[key]
	c.mu.RUnlock()
	if ok {
		return v.est, v.tier
	}
	est, tier := c.routeSlow(t1, t2, fa, fb, costs, p)
	c.mu.Lock()
	c.routes[key] = routeVal{est: est, tier: tier}
	c.mu.Unlock()
	return est, tier
}

// routeSlow is the uncached routing decision behind TierRoute.
func (c *Cache) routeSlow(t1, t2 *tree.Node, fa, fb tree.Fingerprint, costs Costs, p TierPolicy) (float64, Tier) {
	if fa == fb && tree.Equal(t1, t2) {
		return 0, TierExact // identity: exact distance 0, no DP needed anyway
	}
	if fa.Size < tierMinNodes || fb.Size < tierMinNodes {
		return 0, TierExact // below the calibration population; DP is cheap
	}
	sa := c.SignatureFor(t1, p)
	sb := c.SignatureFor(t2, p)
	if !SharesBand(sa, sb) {
		if d := EstimateDistance(sa, sb); d >= p.Threshold+farMargin {
			// Provably-far bucket: no band collision and the signature
			// estimate clears the threshold with margin — skip even the
			// profile merge.
			return c.tieredEstimate(t1, t2, fa, fb, d, costs, p, TierFar), TierFar
		}
	}
	approx := c.ApproxDistance(t1, t2)
	if approx >= p.Threshold {
		return c.tieredEstimate(t1, t2, fa, fb, approx, costs, p, TierEstimated), TierEstimated
	}
	return 0, TierExact
}

// tieredEstimate produces the estimate for a far-routed pair, reading
// through (and writing behind into) the store's tier records when a store
// is attached. The store key carries the full policy and the tier, so
// records from different budgets, thresholds, signature shapes, or
// routing tiers never mix.
func (c *Cache) tieredEstimate(t1, t2 *tree.Node, fa, fb tree.Fingerprint, approx float64, costs Costs, p TierPolicy, tier Tier) float64 {
	st := c.backing.Load()
	if st == nil {
		return c.calibratedRaw(t1, t2, fa, fb, approx, costs)
	}
	a, b := fa, fb
	if costs.Insert == costs.Delete && b.Less(a) {
		a, b = b, a // estimates are symmetric exactly when exact TED is
	}
	tk := store.TierKey{
		A: a, B: b,
		Insert: costs.Insert, Delete: costs.Delete, Rename: costs.Rename,
		Budget: p.Budget, Threshold: p.Threshold,
		Bands: p.Bands, Rows: p.Rows, Tier: uint8(tier),
	}
	if d, ok := st.LookupTierDist(tk); ok {
		return d
	}
	est := c.calibratedRaw(t1, t2, fa, fb, approx, costs)
	st.PutTierDist(tk, est)
	return est
}

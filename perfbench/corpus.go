package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/tree"
)

// metric is the divergence metric every workload sweeps: T_sem, the
// paper's headline tree metric.
const metric = core.MetricTsem

// benchApps are the two corpus apps every workload runs on: babelstream
// in its ten C++ models and its seven-model Fortran port.
var benchApps = []string{"babelstream", "babelstream-fortran"}

// appCorpus is one app's generated ports, in the engine's model order.
type appCorpus struct {
	name  string
	base  string // the serial (C++) or sequential (Fortran) port
	order []string
	ports map[string]*corpus.Codebase
}

// loadCorpus generates every port of the benchmark apps.
func loadCorpus() ([]*appCorpus, error) {
	var out []*appCorpus
	for _, name := range benchApps {
		app, err := corpus.AppByName(name)
		if err != nil {
			return nil, err
		}
		ac := &appCorpus{name: name, ports: map[string]*corpus.Codebase{}}
		for _, m := range corpus.ModelsFor(app) {
			cb, err := corpus.Generate(app, m)
			if err != nil {
				return nil, err
			}
			ac.order = append(ac.order, string(m))
			ac.ports[string(m)] = cb
		}
		ac.base = ac.order[0]
		out = append(out, ac)
	}
	return out, nil
}

// appNamed looks an app up by name.
func appNamed(apps []*appCorpus, name string) *appCorpus {
	for _, ac := range apps {
		if ac.name == name {
			return ac
		}
	}
	panic("perfbench: no app " + name)
}

// cloneCodebase copies a codebase's file map so edits never alias the
// original.
func cloneCodebase(cb *corpus.Codebase) *corpus.Codebase {
	c := *cb
	c.Files = make(map[string]string, len(cb.Files))
	for k, v := range cb.Files {
		c.Files[k] = v
	}
	return &c
}

// --- seeded one-function edits ------------------------------------------------

// floatLit matches a floating-point literal (C `0.4`, Fortran `0.4d0`)
// that is not part of an identifier.
var floatLit = regexp.MustCompile(`(^|[^A-Za-z0-9_.])([0-9]+\.[0-9]+(?:d0)?)`)

// appendFunc appends one small function, whose body constant is k, to a
// unit file: C++ files take it at the end, Fortran modules before their
// `end module` line. It reports false for a file that cannot take one (a
// Fortran main program).
func appendFunc(cb *corpus.Codebase, file string, k int) bool {
	src := cb.Files[file]
	if cb.Lang == corpus.LangFortran {
		at := strings.LastIndex(src, "end module")
		if at < 0 {
			return false
		}
		fn := fmt.Sprintf("  subroutine pb_extra(x)\n    real(8), intent(inout) :: x\n    x = x * %d.0d0\n  end subroutine pb_extra\n\n", k)
		cb.Files[file] = src[:at] + fn + src[at:]
		return true
	}
	cb.Files[file] = src + fmt.Sprintf("\ndouble pb_extra(double x) {\n\treturn x * %d.0;\n}\n", k)
	return true
}

// changeLiteral rewrites the i-th floating-point literal of a unit file
// (i taken modulo the literal count) to whole+0.5, keeping a Fortran
// kind suffix. It reports false when the file has no literal or the
// literal already has that value.
func changeLiteral(cb *corpus.Codebase, file string, i, whole int) bool {
	src := cb.Files[file]
	locs := floatLit.FindAllStringSubmatchIndex(src, -1)
	if len(locs) == 0 {
		return false
	}
	loc := locs[i%len(locs)]
	start, end := loc[4], loc[5]
	old := src[start:end]
	lit := fmt.Sprintf("%d.5", whole)
	if strings.HasSuffix(old, "d0") {
		lit += "d0"
	}
	if lit == old {
		return false
	}
	cb.Files[file] = src[:start] + lit + src[end:]
	return true
}

// unitFiles lists a codebase's unit root files in unit order.
func unitFiles(cb *corpus.Codebase) []string {
	out := make([]string, len(cb.Units))
	for i, u := range cb.Units {
		out[i] = u.File
	}
	return out
}

// randomEdit applies one seeded one-function edit to cb: change the
// slot-th numeric literal (modulo the file's literal count) inside an
// existing function (literal) or append a function to a unit, trying
// units from unit (modulo the unit count) onwards and falling back to the
// other kind when no unit takes the first. Constants are seeded and come
// from a wide range, so an edit almost always produces content no earlier
// state had. It returns the edited file and its previous content.
func randomEdit(rng *rand.Rand, cb *corpus.Codebase, literal bool, unit, slot int) (file, old string) {
	files := unitFiles(cb)
	start := unit % len(files)
	for n := 0; n < 2*len(files); n++ {
		f := files[(start+n)%len(files)]
		prev := cb.Files[f]
		var ok bool
		if literal != (n >= len(files)) {
			ok = changeLiteral(cb, f, slot, 1+rng.Intn(1<<20))
		} else {
			ok = appendFunc(cb, f, 2+rng.Intn(1<<20))
		}
		if ok {
			return f, prev
		}
	}
	panic("perfbench: no unit of " + cb.App + "/" + string(cb.Model) + " takes an edit")
}

// --- reference pairs ------------------------------------------------------------

// treePair is one exact TED computation a divergence performs: two unit
// trees matched by role.
type treePair struct{ a, b *tree.Node }

// unitPairs lists the tree pairs Diverge(a, b, metric) computes exactly:
// units matched by role (unmatched units count whole and run no DP).
func unitPairs(a, b *core.Index) []treePair {
	byRole := map[string]*core.UnitIndex{}
	for i := range b.Units {
		byRole[b.Units[i].Role] = &b.Units[i]
	}
	var out []treePair
	for i := range a.Units {
		if ub, ok := byRole[a.Units[i].Role]; ok {
			out = append(out, treePair{a.Units[i].Trees[metric], ub.Trees[metric]})
		}
	}
	return out
}

package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"silvervale/internal/core"
)

// goldenMatrix is a reference T_sem matrix of one app, built by the
// uncached package-level core.Matrix over non-incremental indexes, so no
// memo path under test contributes to it.
type goldenMatrix struct {
	App    string      `json:"app"`
	Metric string      `json:"metric"`
	Order  []string    `json:"order"`
	Matrix [][]float64 `json:"matrix"`
}

//go:embed golden/*.json
var goldenFS embed.FS

// loadGolden reads the committed reference matrix of an app.
func loadGolden(app string) (*goldenMatrix, error) {
	b, err := goldenFS.ReadFile("golden/" + app + ".json")
	if err != nil {
		return nil, err
	}
	var g goldenMatrix
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", app, err)
	}
	return &g, nil
}

// referenceIndexes indexes every port of an app on the plain pipeline:
// package-level IndexCodebase, no engine, no store, no incremental reuse.
func referenceIndexes(ac *appCorpus) (map[string]*core.Index, error) {
	idxs := map[string]*core.Index{}
	for _, m := range ac.order {
		idx, err := core.IndexCodebase(ac.ports[m], core.Options{Workers: runtime.NumCPU()})
		if err != nil {
			return nil, err
		}
		idxs[m] = idx
	}
	return idxs, nil
}

// runGolden rebuilds the reference matrices from the uncached reference
// path only and writes them to the given directory.
func runGolden(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench golden DIR")
		return 2
	}
	apps, err := loadCorpus()
	if err == nil {
		err = os.MkdirAll(args[0], 0o755)
	}
	for _, ac := range apps {
		if err != nil {
			break
		}
		var idxs map[string]*core.Index
		idxs, err = referenceIndexes(ac)
		if err != nil {
			break
		}
		g := goldenMatrix{App: ac.name, Metric: metric, Order: ac.order}
		g.Matrix, err = core.Matrix(idxs, ac.order, metric)
		if err != nil {
			break
		}
		var b []byte
		b, err = json.MarshalIndent(g, "", " ")
		if err != nil {
			break
		}
		err = os.WriteFile(filepath.Join(args[0], ac.name+".json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench golden:", err)
		return 1
	}
	return 0
}

// sameMatrix reports whether two matrices are bit-for-bit identical.
func sameMatrix(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// maxCellError returns the largest |a-b| over two equally shaped matrices.
func maxCellError(a, b [][]float64) float64 {
	worst := 0.0
	for i := range a {
		for j := range a[i] {
			worst = math.Max(worst, math.Abs(a[i][j]-b[i][j]))
		}
	}
	return worst
}

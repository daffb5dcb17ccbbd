package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`

	endToEnd bool
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must report.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// spec is the loaded BENCHMARK.json (set once in benchMain).
var spec benchSpec

// loadSpec reads BENCHMARK.json into spec.
func loadSpec(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read spec: %w", err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	for i := range spec.EndToEnd {
		spec.EndToEnd[i].endToEnd = true
	}
	return nil
}

// design is the part of perfbench/design.json the benchmark reads: the
// workload constants (rate ladder, latency limit, tier budget, edit
// depth, traffic mix). The file also records, for people, the reasoning
// behind each metric and workload, which BENCHMARK.json's fixed key set
// cannot carry.
type design struct {
	Serve struct {
		FixedRPS       float64   `json:"fixed_rps"`
		LadderRPS      []float64 `json:"ladder_rps"`
		ReadP99LimitMS float64   `json:"read_p99_limit_ms"`
		LagP99LimitMS  float64   `json:"lag_p99_limit_ms"`
		FixedShare     float64   `json:"fixed_share"`
		MaxBacklog     int       `json:"max_backlog"`
		// WriteVariants is how many distinct seeded edits each non-base
		// port of an app offers as writes.
		WriteVariants map[string]int `json:"write_variants"`
	} `json:"serve"`
	Cold struct {
		TierBudget     float64 `json:"tier_budget"`
		RestartRepeats int     `json:"restart_repeats"`
		// Workers is the engine's worker count in the timed phases.
		Workers int `json:"workers"`
	} `json:"cold"`
	Edit struct {
		Depth int `json:"depth"`
	} `json:"edit"`
	Traffic struct {
		// AppCycle is the cycle of apps that successive edit-loop edits
		// and serve-mix edit-review cycles go to.
		AppCycle []string `json:"app_cycle"`
	} `json:"traffic"`
}

//go:embed design.json
var designJSON []byte

// params is the parsed design.json.
var params = mustDesign()

func mustDesign() design {
	var d design
	if err := json.Unmarshal(designJSON, &d); err != nil {
		panic("perfbench: design.json: " + err.Error())
	}
	return d
}

// commitID reads the checkout's git HEAD when there is one; benchmark
// checkouts without git history report "unknown" and rely on
// sourceDigest instead.
func commitID() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes every Go source and module file of the checkout
// (outside the build directory), identifying the code measured even
// where there is no git history.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == workDir || path == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod" || strings.HasSuffix(path, ".json")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// resultSet holds metric values by workload and metric name, one value per
// run.
type resultSet map[string]map[string][]float64

// runCompare prints, for every workload and every metric of BENCHMARK.json
// present in either result set, both sides' medians over their runs and
// the change from A to B. A result set is a file of result lines (the
// benchmark's stdout, or a saved .jsonl) or a directory of such files;
// each result line belongs to the workload of the stamp line before it.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A B   (files or directories of result lines)")
		return 2
	}
	if err := loadSpec("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	var sets [2]resultSet
	for i, path := range args {
		set, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 1
		}
		sets[i] = set
	}
	workloadNames := map[string]bool{}
	for _, s := range sets {
		for w := range s {
			workloadNames[w] = true
		}
	}
	var names []string
	for w := range workloadNames {
		names = append(names, w)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, w := range names {
		a, b := sets[0][w], sets[1][w]
		fmt.Fprintf(tw, "%s\t\t\t\t\t\n", w)
		fmt.Fprintf(tw, "metric\tunit\tA median (n)\tB median (n)\tdelta\t\n")
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			va, vb := a[m.Name], b[m.Name]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n", m.Name, m.Unit,
				medianCell(va), medianCell(vb), deltaCell(va, vb, m.Better))
		}
		fmt.Fprintf(tw, "\t\t\t\t\t\n")
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return 0
}

func medianCell(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g (%d)", median(xs), len(xs))
}

// deltaCell renders B's median against A's, marking the direction the
// spec calls better.
func deltaCell(a, b []float64, better string) string {
	if len(a) == 0 || len(b) == 0 {
		return "-"
	}
	ma, mb := median(a), median(b)
	if ma == mb {
		return "0"
	}
	word := "worse"
	if (mb < ma) == (better == "lower") {
		word = "better"
	}
	if ma == 0 {
		return fmt.Sprintf("%+.4g %s", mb-ma, word)
	}
	return fmt.Sprintf("%+.1f%% %s", 100*(mb-ma)/ma, word)
}

// loadResults reads a result file or every *.jsonl file of a directory.
func loadResults(path string) (resultSet, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.jsonl")); err != nil {
			return nil, err
		}
	}
	set := resultSet{}
	for _, f := range files {
		if err := readResultFile(f, set); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return set, nil
}

func readResultFile(path string, set resultSet) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	workload := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rec struct {
			Stamp *struct {
				Workload string `json:"workload"`
			} `json:"stamp"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue
		}
		if rec.Stamp != nil {
			workload = rec.Stamp.Workload
			continue
		}
		if rec.Metrics == nil {
			continue
		}
		if set[workload] == nil {
			set[workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			set[workload][name] = append(set[workload][name], v.Value)
		}
	}
	return sc.Err()
}

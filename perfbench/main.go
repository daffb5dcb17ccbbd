// Command perfbench is silvervale's benchmark. One process runs one
// workload for a fixed window and prints one JSON result line:
//
//	perfbench --workload cold-sweep|edit-loop|serve-mix --seed N --seconds S --trace 0|1
//
// Untraced runs (--trace 0) report the end-to-end metrics listed in
// BENCHMARK.json; traced runs (--trace 1) report its per-layer metrics.
// The traced run wraps every call the benchmark makes into a pipeline
// package in a span named after the layer, and then breaks each layer's
// cost down on the workload's own inputs, from its public functions and
// the spans and counters the program already emits. Nothing inside the
// program is instrumented beyond what it already exposes.
//
// Two helper subcommands share the binary:
//
//	perfbench compare A B   per-metric deltas between two result sets
//	perfbench golden DIR    rebuild the reference matrices in DIR
//
// Every figure the benchmark reports is checked against references that
// never touch the memo paths under test (see golden.go).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"silvervale/internal/obs"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"cold-sweep": coldSweep,
	"edit-loop":  editLoop,
	"serve-mix":  serveMix,
}

// workDir holds everything a run writes: stores, traces, result files.
const workDir = ".bench_build"

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 3

// run is one benchmark process: its inputs, its timing samples and the
// metrics it will report.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	workers  int
	rng      *rand.Rand

	// tr records the benchmark's spans around calls into the pipeline
	// while tracing is on; it is nil in untraced runs and outside the
	// traced part of a traced run, where every span call is a no-op.
	// spans keeps the recorder once tracing has started.
	tr    *obs.Recorder
	spans *obs.Recorder

	// samples holds per-operation latencies (ms) by operation class:
	// "recompute", "reuse" and "aux" (see design.json).
	samples map[string][]float64
	// untracedPrimary holds the primary class's latencies measured in the
	// untraced prefix of a traced run (for bench.trace_overhead_pct).
	untracedPrimary []float64
	setups          []float64 // seconds per set-up repetition

	rssStop chan struct{}
	rssDone chan float64
	cpuAt   []float64 // /proc/stat CPU times when the window started
	steal   float64   // share of CPU time stolen by the hypervisor in the window, %

	invalidPhases int // serve-mix fixed-rate phases discarded as invalid

	attempted int
	failed    int
	checks    []string // output checks that ran, in order
	metrics   map[string]float64
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		case "golden":
			os.Exit(runGolden(os.Args[2:]))
		}
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "cold-sweep, edit-loop or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed (inputs, edit choice, arrival times)")
	seconds := fs.Int("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}
	if err := loadSpec("BENCHMARK.json"); err != nil {
		return err
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workers:  runtime.NumCPU(),
		rng:      rand.New(rand.NewSource(*seed)),
		samples:  map[string][]float64{},
		metrics:  map[string]float64{},
	}
	if err := os.MkdirAll(filepath.Join(workDir, "work"), 0o755); err != nil {
		return err
	}
	if err := runWorkload(r); err != nil {
		return err
	}
	r.finish()
	want := spec.EndToEnd
	if r.traced {
		want = spec.PerLayer
	}
	res, err := r.result(want)
	if err != nil {
		return err
	}
	stamp := r.stamp()
	if err := saveResult(r, stamp, res); err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// timeSetup runs fn setupReps times, recording each repetition's wall time;
// fn receives the repetition index and the caller keeps the last state.
func (r *run) timeSetup(fn func(rep int) error) error {
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	return nil
}

// traceStart switches a traced run from its untraced prefix to tracing.
// The first fifth of a traced window runs untraced so the run can report
// its own tracing overhead.
func (r *run) traceStart(elapsed time.Duration) {
	if r.traced && r.spans == nil && elapsed >= r.window/5 {
		r.startTrace()
	}
}

// startTrace turns span recording on.
func (r *run) startTrace() {
	r.spans = obs.NewRecorder()
	r.tr = r.spans
}

// sample records one operation latency of a class. In the untraced prefix
// of a traced run, primary-class samples feed the overhead estimate instead.
func (r *run) sample(class string, d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	if r.traced && r.spans == nil {
		if class == primaryClass[r.workload] {
			r.untracedPrimary = append(r.untracedPrimary, ms)
		}
		return
	}
	r.samples[class] = append(r.samples[class], ms)
}

// fail counts one failed operation and says why on stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// checked records that an output check ran.
func (r *run) checked(name string) { r.checks = append(r.checks, name) }

// finish derives the metrics every workload shares.
func (r *run) finish() {
	r.metrics["setup_s"] = median(r.setups)
	for _, class := range []string{"recompute", "reuse", "aux"} {
		r.metrics[class+"_p50_ms"] = median(r.samples[class])
	}
	r.metrics["bench.recompute_p90_ms"] = tail(r.samples["recompute"], 0.90)
	r.metrics["bench.reuse_p90_ms"] = tail(r.samples["reuse"], 0.90)
	if r.attempted > 0 {
		r.metrics["bench.failed_ratio"] = float64(r.failed) / float64(r.attempted)
	}
	if r.traced {
		primary := r.samples[primaryClass[r.workload]]
		if u := median(r.untracedPrimary); u > 0 {
			r.metrics["bench.trace_overhead_pct"] = 100 * (median(primary)/u - 1)
		}
		r.selfTimes()
	}
}

// primaryClass is the class whose traced/untraced ratio estimates the
// tracing overhead: the class with the most samples in the untraced first
// fifth of the window (on cold-sweep a cold sweep takes seconds, so the
// prefix holds only a few; it holds dozens of restarts).
var primaryClass = map[string]string{
	"cold-sweep": "reuse",
	"edit-loop":  "recompute",
	"serve-mix":  "reuse",
}

// result assembles the output object, reporting exactly the metrics the
// spec lists, each with the spec's unit.
func (r *run) result(want []specMetric) (map[string]any, error) {
	ms := map[string]any{}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			v = 0 // a layer this workload does not exercise did no work
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured %v on %s", m.Name, v, r.workload)
		}
		if m.endToEnd && !(v > 0) {
			return nil, fmt.Errorf("end-to-end metric %s measured %v on %s", m.Name, v, r.workload)
		}
		ms[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	known := map[string]bool{}
	for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			known[m.Name] = true
		}
	}
	for name := range r.metrics {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	if r.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	correct := r.failed == 0 && len(r.checks) > 0
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", r.failed, r.attempted)
	}
	fmt.Fprintf(os.Stderr, "perfbench: checks ran: %s\n", strings.Join(r.checks, ", "))
	return map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}, nil
}

// stamp records what a result was measured on, so results from different
// machines stay comparable.
func (r *run) stamp() map[string]any {
	return map[string]any{
		"workload":       r.workload,
		"seed":           r.seed,
		"seconds":        r.window.Seconds(),
		"traced":         r.traced,
		"go":             runtime.Version(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"engine_workers": r.workers,
		"commit":         commitID(),
		"source_digest":  sourceDigest(),
		"steal_pct":      r.steal,
		"invalid_phases": r.invalidPhases,
		"samples": map[string]any{
			"recompute_ms": quartiles(r.samples["recompute"]),
			"reuse_ms":     quartiles(r.samples["reuse"]),
			"aux_ms":       quartiles(r.samples["aux"]),
			"setup_s":      quartiles(r.setups),
		},
	}
}

// saveResult keeps a copy of the result, with its stamp, for compare.
func saveResult(r *run, stamp map[string]any, res map[string]any) error {
	dir := filepath.Join(workDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.jsonl", r.workload, r.seed, boolInt(r.traced))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- statistics ---------------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles summarises a sample for the result stamp: its size and its
// first, second and third quartiles.
func quartiles(xs []float64) map[string]float64 {
	return map[string]float64{
		"n":   float64(len(xs)),
		"p25": quantile(xs, 0.25),
		"p50": quantile(xs, 0.5),
		"p75": quantile(xs, 0.75),
	}
}

// tail returns the q-quantile only when at least ten samples lie beyond
// it, and 0 otherwise: a tail estimated from fewer is not reported.
func tail(xs []float64, q float64) float64 {
	if float64(len(xs))*(1-q) < 10 {
		return 0
	}
	return quantile(xs, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowStart begins the timed window: it returns set-up garbage to the
// OS and starts sampling the resident set size every rssEvery, so
// peak_rss_mb is the largest resident set the window itself reached.
func (r *run) windowStart() {
	debug.FreeOSMemory()
	r.cpuAt = cpuTimes()
	r.rssStop = make(chan struct{})
	r.rssDone = make(chan float64)
	go func() {
		peak := rssMB()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = math.Max(peak, rssMB())
			case <-r.rssStop:
				r.rssDone <- math.Max(peak, rssMB())
				return
			}
		}
	}()
}

// windowEnd ends the timed window and records peak_rss_mb.
func (r *run) windowEnd() {
	close(r.rssStop)
	r.metrics["peak_rss_mb"] = <-r.rssDone
	if now := cpuTimes(); len(now) > 7 && len(r.cpuAt) == len(now) {
		var total float64
		for i := range now {
			total += now[i] - r.cpuAt[i]
		}
		if total > 0 {
			r.steal = 100 * (now[7] - r.cpuAt[7]) / total
		}
	}
}

// cpuTimes reads the machine's aggregate CPU times from /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, ...), or nil.
func cpuTimes() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "cpu" {
		return nil
	}
	var out []float64
	for _, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

// rssMB reads the process's current resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// memSnap is the runtime counters a window's allocation and GC cost come from.
type memSnap struct {
	alloc, pauseNs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// runtimeMetrics reports allocation and GC pause per operation between two
// snapshots.
func (r *run) runtimeMetrics(before, after memSnap, ops int) {
	if ops == 0 {
		return
	}
	r.metrics["runtime.alloc_mb"] = float64(after.alloc-before.alloc) / (1 << 20) / float64(ops)
	r.metrics["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6 / float64(ops)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/experiments"
	"silvervale/internal/obs"
	"silvervale/internal/serve"
	"silvervale/internal/ted"
)

// serveMix is the serve-mix workload: serve.New behind a real loopback
// listener, driven by a seeded open-loop Poisson arrival stream over at
// most nproc connections. Reads (reuse) are warm /v1/matrix, /v1/frombase
// and /v1/phi requests; writes (recompute) upload a seeded one-function
// edit of a port and score it with /v1/diverge against the uploaded base;
// the upload request alone is the aux class. Latency runs from each
// operation's due time. The traffic is a stream of edit-review cycles (see
// schedule). A fixed-rate phase yields the latency figures; in traced
// runs a doubling ladder of higher rates follows and yields the capacity.
//
// Checks: every read body is byte-identical to the same payload rendered
// from reference values (golden matrices, uncached core.FromBase, a fresh
// Env's chart); every upload id equals the codebase's content hash; after
// the window every write result equals uncached core.Diverge over
// non-incremental indexes.
func serveMix(r *run) error {
	var apps []*appCorpus
	var sv *liveServer
	var stale []*liveServer
	var bases map[string]string
	kinds := readKinds()
	err := r.timeSetup(func(int) error {
		if sv != nil {
			stale = append(stale, sv)
		}
		var err error
		if apps, err = loadCorpus(); err != nil {
			return err
		}
		if sv, err = startServer(r.workers); err != nil {
			return err
		}
		// Warm-up: one request of every read kind fills the daemon's
		// caches, then the two bases are uploaded.
		for _, rk := range kinds {
			if _, _, err := sv.post(nil, rk.path, rk.body); err != nil {
				return err
			}
		}
		bases = map[string]string{}
		for _, ac := range apps {
			id, err := sv.upload(nil, uploadBody(ac.ports[ac.base]))
			if err != nil {
				return err
			}
			bases[ac.name] = id
		}
		return nil
	})
	for _, old := range stale {
		old.close()
	}
	stale = nil // let the earlier daemons' warm state be collected
	if sv != nil {
		defer sv.close()
	}
	if err != nil {
		return err
	}
	if err := r.expectReads(apps, kinds); err != nil {
		return err
	}
	writes := makeWrites(r.seed, apps, bases)

	// Phase plan: an untraced run offers the fixed rate for the whole
	// window. A traced run offers it for the fixed share of the window and
	// then runs every ladder rate with an equal operation count: the
	// ladder's figures are per-layer ones, which only traced runs report.
	rate0, ladder := params.Serve.FixedRPS, params.Serve.LadderRPS
	fixed := r.window
	if r.traced {
		fixed = time.Duration(float64(r.window) * params.Serve.FixedShare)
	}

	before := sv.srv.Stats()
	r.windowStart()
	var memBefore, memAfter memSnap
	var cacheBefore, cacheAfter ted.CacheStats
	var phases []*phaseResult
	if r.traced {
		// Untraced prefix for the overhead estimate, then the traced rest.
		prefix := r.runPhase(sv, rate0, r.schedule(rate0, r.window/5, 0, kinds, writes))
		phases = append(phases, prefix)
		r.untracedPrimary = prefix.reads
		fixed -= r.window / 5
	}
	// The fixed-rate phase is valid only if the generator kept to its
	// schedule and never dropped operations for a full backlog; an invalid
	// attempt is discarded (its failures still count) and run again, and a
	// run with no valid attempt reports nothing.
	var fixedPhase *phaseResult
	var lagP99 float64
	for attempt := 0; ; attempt++ {
		if r.traced {
			r.startTrace()
			memBefore, cacheBefore = readMem(), sv.env.Engine().CacheStats()
		}
		fixedPhase = r.runPhase(sv, rate0, r.schedule(rate0, fixed, 0, kinds, writes))
		phases = append(phases, fixedPhase)
		lagP99 = quantile(fixedPhase.lags, 0.99)
		var why string
		switch {
		case fixedPhase.aborted:
			why = fmt.Sprintf("its backlog passed %d operations and the rest were dropped", params.Serve.MaxBacklog)
		case lagP99 > params.Serve.LagP99LimitMS:
			why = fmt.Sprintf("the load generator fell behind its schedule (lag p99 %.2f ms > %.2f ms)", lagP99, params.Serve.LagP99LimitMS)
		}
		if why == "" {
			break
		}
		if attempt == maxFixedAttempts-1 {
			return fmt.Errorf("invalid run: the fixed-rate phase was invalid in %d attempts; last: %s", maxFixedAttempts, why)
		}
		r.invalidPhases++
		fmt.Fprintf(os.Stderr, "perfbench: discarding the fixed-rate phase: %s\n", why)
	}
	r.windowEnd()
	var steps []*phaseResult
	if r.traced {
		// The layer breakdown covers the fixed-rate phase only.
		memAfter, cacheAfter = readMem(), sv.env.Engine().CacheStats()
		r.tr = nil
		var inv float64
		for _, rate := range ladder {
			inv += 1 / rate
		}
		stepOps := int((r.window - r.window/5 - fixed).Seconds() / inv)
		for _, rate := range ladder {
			if len(steps) > 0 && !steps[len(steps)-1].withinCapacity() {
				break // a rate above a failed one is not tried
			}
			steps = append(steps, r.runPhase(sv, rate, r.schedule(rate, 0, stepOps, kinds, writes)))
		}
		phases = append(phases, steps...)
	}

	// Latencies come from the fixed-rate phase; failures from every phase.
	r.samples["reuse"] = fixedPhase.reads
	r.samples["recompute"] = fixedPhase.writes
	r.samples["aux"] = fixedPhase.uploads
	for _, p := range phases {
		r.attempted += p.attempted
		for _, msg := range p.failures {
			r.fail("%s", msg)
		}
	}
	r.checked("read bodies byte-identical to reference payloads")
	r.checked("upload ids equal codebase content hashes")

	if err := r.checkWrites(writes); err != nil {
		return err
	}
	st := sv.srv.Stats()
	if st.Errors != before.Errors {
		r.fail("serve-mix: daemon counted %d request errors", st.Errors-before.Errors)
	}
	if !r.traced {
		return nil
	}

	// Per-layer figures of the traced run.
	ops := len(fixedPhase.reads) + len(fixedPhase.writes)
	acc := newLayerAcc()
	acc.ops = ops
	acc.cache(cacheAfter, cacheBefore)
	acc.max("ted.memo_bytes", memoBytes(cacheAfter))
	r.reportLayers(acc)
	r.runtimeMetrics(memBefore, memAfter, ops)
	r.metrics["serve.rejected"] = float64(st.Rejected - before.Rejected)
	r.metrics["serve.upload_ms"] = mean(fixedPhase.uploads)
	r.metrics["serve.diverge_ms"] = mean(fixedPhase.diverges)
	for endpoint, lats := range fixedPhase.byKind {
		r.metrics["serve.read_p50_ms."+endpoint] = median(lats)
	}
	r.metrics["loadgen.lag_p99_ms"] = lagP99
	r.metrics["loadgen.offered_rps"] = fixedPhase.offeredRPS()
	r.metrics["loadgen.completed_rps"] = fixedPhase.completedRPS()
	capacity := 0.0
	for i, p := range steps {
		r.metrics[fmt.Sprintf("serve.read_p99_ms.step%d", i+1)] = quantile(p.reads, 0.99)
		if p.withinCapacity() {
			capacity = p.rate
		}
	}
	r.metrics["loadgen.capacity_rps"] = capacity
	if err := r.decomposeServe(sv, kinds); err != nil {
		return err
	}
	var cbs []*corpus.Codebase
	var pairs []treePair
	for _, w := range usedWrites(writes, 16) {
		if w.ref == nil {
			continue // its check failed and is already counted
		}
		cbs = append(cbs, w.cb)
		pairs = append(pairs, unitPairs(w.ref.base, w.ref.edited)...)
	}
	for _, ac := range apps {
		cbs = append(cbs, ac.ports[ac.base])
	}
	if err := r.decomposeFrontend(cbs); err != nil {
		return err
	}
	r.decomposeDP(pairs)
	return r.writeTrace()
}

// --- the daemon under test --------------------------------------------------------

// spanHeader carries the id of the client span a request belongs to, so
// the handler wrapper can parent its span under it in traced runs.
const spanHeader = "X-Perfbench-Span"

// liveServer is the daemon behind a loopback listener plus the client the
// load generator drives it with.
type liveServer struct {
	env    *experiments.Env
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	spans  sync.Map // span id → *obs.Span of the client request
	nextID atomic.Uint64
}

// startServer boots serve.New with its default admission settings on an
// ephemeral loopback port.
func startServer(workers int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := experiments.NewEnvWorkers(workers)
	sv := &liveServer{
		env:    env,
		srv:    serve.New(serve.Config{Env: env}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
	}
	sv.hs = &http.Server{Handler: http.HandlerFunc(sv.handle)}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	return sv, nil
}

// handle wraps the daemon's ServeHTTP in a serve.handler_ms span when the
// request carries a client span id.
func (sv *liveServer) handle(w http.ResponseWriter, req *http.Request) {
	if id := req.Header.Get(spanHeader); id != "" {
		if v, ok := sv.spans.Load(id); ok {
			sp := v.(*obs.Span).Start("serve.handler_ms")
			defer sp.End()
		}
	}
	sv.srv.ServeHTTP(w, req)
}

// close shuts the daemon down and waits for its serve loop to return.
func (sv *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sv.hs.Shutdown(ctx)
	<-sv.served
	sv.client.CloseIdleConnections()
}

// post sends one JSON request inside a serve.http_ms span under parent and
// returns the response body and the round-trip time. Any status but 200
// is an error.
func (sv *liveServer) post(parent *obs.Span, path string, body []byte) ([]byte, time.Duration, error) {
	sp := parent.Start("serve.http_ms")
	req, err := http.NewRequest(http.MethodPost, sv.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp != nil {
		id := strconv.FormatUint(sv.nextID.Add(1), 10)
		sv.spans.Store(id, sp)
		defer sv.spans.Delete(id)
		req.Header.Set(spanHeader, id)
	}
	t0 := time.Now()
	resp, err := sv.client.Do(req)
	if err != nil {
		sp.End()
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, rtt, nil
}

// upload posts a codebase and returns its registry id.
func (sv *liveServer) upload(parent *obs.Span, body []byte) (string, error) {
	out, _, err := sv.post(parent, "/v1/codebases", body)
	if err != nil {
		return "", err
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return "", fmt.Errorf("upload response: %w", err)
	}
	return resp.ID, nil
}

// uploadBody renders a codebase as a POST /v1/codebases request body.
func uploadBody(cb *corpus.Codebase) []byte {
	type unit struct {
		File string `json:"file"`
		Role string `json:"role"`
	}
	body := struct {
		App    string            `json:"app"`
		Model  string            `json:"model"`
		Lang   string            `json:"lang"`
		Files  map[string]string `json:"files"`
		Units  []unit            `json:"units"`
		System map[string]bool   `json:"system,omitempty"`
	}{App: cb.App, Model: string(cb.Model), Lang: string(cb.Lang), Files: cb.Files, System: cb.System}
	for _, u := range cb.Units {
		body.Units = append(body.Units, unit{u.File, u.Role})
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic("perfbench: upload body: " + err.Error())
	}
	return b
}

// contentID is the registry id a codebase upload must receive.
func contentID(cb *corpus.Codebase) string {
	h := core.CodebaseContentHash(cb)
	return fmt.Sprintf("%016x%016x", h.H1, h.H2)
}

// --- operations ----------------------------------------------------------------------

// readKind is one warm read request and the body it must return.
type readKind struct {
	name, path string
	app        string
	endpoint   string // matrix, frombase or phi
	body       []byte
	want       []byte
}

// maxFixedAttempts bounds how often an invalid fixed-rate phase is run
// again before the whole run is declared invalid.
const maxFixedAttempts = 3

// readKinds lists the read requests of the mix. /v1/phi runs on the C++
// app only: its chart is drawn against the serial base, which the Fortran
// port does not have. No request sends phi_source (see design.json notes).
func readKinds() []*readKind {
	return []*readKind{
		{name: "matrix babelstream", path: "/v1/matrix", app: "babelstream", endpoint: "matrix",
			body: []byte(`{"app":"babelstream","metric":"tsem"}`)},
		{name: "matrix babelstream-fortran", path: "/v1/matrix", app: "babelstream-fortran", endpoint: "matrix",
			body: []byte(`{"app":"babelstream-fortran","metric":"tsem"}`)},
		{name: "frombase babelstream", path: "/v1/frombase", app: "babelstream", endpoint: "frombase",
			body: []byte(`{"app":"babelstream","base":"serial","metric":"tsem"}`)},
		{name: "frombase babelstream-fortran", path: "/v1/frombase", app: "babelstream-fortran", endpoint: "frombase",
			body: []byte(`{"app":"babelstream-fortran","base":"f-sequential","metric":"tsem"}`)},
		{name: "phi babelstream", path: "/v1/phi", app: "babelstream", endpoint: "phi",
			body: []byte(`{"app":"babelstream"}`)},
	}
}

// expectReads renders every read kind's expected body from reference
// values: matrices from the golden files, from-base values from the
// uncached package-level core.FromBase, the chart from a separate fresh
// Env, each through the daemon's own payload constructors and encoding.
func (r *run) expectReads(apps []*appCorpus, kinds []*readKind) error {
	ref := experiments.NewEnvWorkers(r.workers)
	for _, ac := range apps {
		idxs, err := referenceIndexes(ac)
		if err != nil {
			return err
		}
		g, err := loadGolden(ac.name)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := serve.BuildMatrixPayload(ac.name, metric, ac.order, g.Matrix, idxs).WriteJSON(&buf); err != nil {
			return err
		}
		readKindNamed(kinds, "matrix "+ac.name).want = append([]byte(nil), buf.Bytes()...)
		vals, err := core.FromBase(idxs, ac.base, ac.order, metric)
		if err != nil {
			return err
		}
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(serve.BuildFromBasePayload(ac.name, ac.base, metric, ac.order, vals, idxs[ac.base])); err != nil {
			return err
		}
		readKindNamed(kinds, "frombase "+ac.name).want = append([]byte(nil), buf.Bytes()...)
	}
	ch, err := ref.NavChart("babelstream")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ch.WriteJSON(&buf); err != nil {
		return err
	}
	readKindNamed(kinds, "phi babelstream").want = buf.Bytes()
	return nil
}

// readKindNamed looks a read kind up by name.
func readKindNamed(kinds []*readKind, name string) *readKind {
	for _, rk := range kinds {
		if rk.name == name {
			return rk
		}
	}
	panic("perfbench: no read kind " + name)
}

// writeInput is one distinct write: a seeded one-function edit of a
// non-base port, uploaded and scored against the app's uploaded base.
type writeInput struct {
	app    *appCorpus
	cb     *corpus.Codebase
	body   []byte
	id     string // the id the upload must receive
	baseID string

	mu      sync.Mutex
	results []divergeResult // every diverge response received
	ref     *writeRef       // set by checkWrites
}

type divergeResult struct {
	Raw  float64 `json:"raw"`
	DMax float64 `json:"dmax"`
	Norm float64 `json:"norm"`
}

// writeRef is the reference side of a write check.
type writeRef struct{ base, edited *core.Index }

// makeWrites builds every distinct write input of a seed: the app's
// design number of edits of each non-base port — a literal change and an
// appended function on the first unit, then on the second — with seeded
// constants.
func makeWrites(seed int64, apps []*appCorpus, bases map[string]string) []*writeInput {
	var out []*writeInput
	for _, ac := range apps {
		for _, m := range ac.order[1:] {
			for v := 0; v < params.Serve.WriteVariants[ac.name]; v++ {
				cb := cloneCodebase(ac.ports[m])
				rng := rand.New(rand.NewSource(seed*1000 + int64(len(out))))
				randomEdit(rng, cb, v%2 == 0, v/2, rng.Intn(16))
				out = append(out, &writeInput{app: ac, cb: cb, body: uploadBody(cb), id: contentID(cb), baseID: bases[ac.name]})
			}
		}
	}
	return out
}

// serveOp is one scheduled operation.
type serveOp struct {
	due   time.Duration // offset from the phase start
	read  *readKind
	write *writeInput
}

// schedule draws a seeded Poisson arrival stream at rate: operations up
// to span, or exactly n operations when span is 0. Operations are dealt
// from shuffled decks rather than drawn independently, so every run of
// any seed sends the same mix. One deck holds one edit-review cycle per
// entry of the design's app cycle: a write of that app and one read of
// each of its read kinds. An app's writes go through all of its write
// inputs before any repeats.
func (r *run) schedule(rate float64, span time.Duration, n int, kinds []*readKind, writes []*writeInput) []serveOp {
	var ops, deck []serveOp
	wdecks := map[string][]*writeInput{}
	t := 0.0
	for {
		t += r.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if (span > 0 && due >= span) || (span == 0 && len(ops) == n) {
			return ops
		}
		if len(deck) == 0 {
			for _, app := range params.Traffic.AppCycle {
				if len(wdecks[app]) == 0 {
					for _, w := range writes {
						if w.app.name == app {
							wdecks[app] = append(wdecks[app], w)
						}
					}
					wd := wdecks[app]
					r.rng.Shuffle(len(wd), func(i, j int) { wd[i], wd[j] = wd[j], wd[i] })
				}
				deck = append(deck, serveOp{write: wdecks[app][0]})
				wdecks[app] = wdecks[app][1:]
				for _, rk := range kinds {
					if rk.app == app {
						deck = append(deck, serveOp{read: rk})
					}
				}
			}
			r.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		op := deck[0]
		op.due, deck = due, deck[1:]
		ops = append(ops, op)
	}
}

// phaseResult is what one phase of the open loop measured.
type phaseResult struct {
	rate     float64
	span     time.Duration // schedule length
	finished time.Duration // from phase start to the last completion
	drain    time.Duration // from the last dispatch to the last completion
	aborted  bool          // backlog exceeded max_backlog; dispatch stopped

	mu        sync.Mutex
	attempted int
	failures  []string
	reads     []float64            // ms from due time
	byKind    map[string][]float64 // reads by endpoint, ms from due time
	writes    []float64            // ms from due time
	uploads   []float64            // upload round trip, ms
	diverges  []float64            // diverge round trip, ms
	lags      []float64            // ms from due time to dispatch
}

// withinCapacity reports whether the phase met the design latency limit
// with no failure and no growing backlog.
func (p *phaseResult) withinCapacity() bool {
	limit := params.Serve.ReadP99LimitMS
	return !p.aborted && len(p.failures) == 0 && len(p.reads) > 0 &&
		quantile(p.reads, 0.99) <= limit && float64(p.drain.Nanoseconds())/1e6 <= limit
}

func (p *phaseResult) offeredRPS() float64 {
	return float64(len(p.lags)) / p.span.Seconds()
}

func (p *phaseResult) completedRPS() float64 {
	return float64(len(p.reads)+len(p.writes)) / p.finished.Seconds()
}

// runPhase drives one schedule open-loop: a dispatcher releases each
// operation at its due time into a queue that nproc connection workers
// drain. Dispatch stops once the queue holds more than max_backlog
// operations; queued operations are then dropped unsent.
func (r *run) runPhase(sv *liveServer, rate float64, ops []serveOp) *phaseResult {
	p := &phaseResult{rate: rate, byKind: map[string][]float64{}}
	type pending struct {
		op    *serveOp
		due   time.Time
		root  *obs.Span
		queue *obs.Span
	}
	queue := make(chan pending, len(ops)) // never blocks the dispatcher
	var stop atomic.Bool
	var wg sync.WaitGroup
	var lastDone atomic.Int64
	start := time.Now()
	for c := 0; c < r.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pd := range queue {
				if stop.Load() {
					pd.queue.End()
					pd.root.End()
					continue
				}
				pd.queue.End()
				sv.exec(p, pd.op, pd.due, pd.root)
				pd.root.End()
				lastDone.Store(int64(time.Since(start)))
			}
		}()
	}
	var lastDispatch time.Duration
	for i := range ops {
		due := start.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if len(queue) > params.Serve.MaxBacklog {
			p.aborted = true
			stop.Store(true)
			break
		}
		name := "op.read"
		if ops[i].write != nil {
			name = "op.write"
		}
		root := r.tr.Start(name)
		pd := pending{op: &ops[i], due: due, root: root, queue: root.Start("loadgen.queue_ms")}
		lag := time.Since(due)
		p.lags = append(p.lags, float64(lag.Nanoseconds())/1e6)
		queue <- pd
		lastDispatch = time.Since(start)
	}
	close(queue)
	wg.Wait()
	p.finished = time.Duration(lastDone.Load())
	p.drain = p.finished - lastDispatch
	if len(ops) > 0 {
		p.span = ops[len(ops)-1].due
	}
	return p
}

// exec runs one operation and records its latency from due time and its
// outcome.
func (sv *liveServer) exec(p *phaseResult, op *serveOp, due time.Time, root *obs.Span) {
	var msg string
	var upload, diverge time.Duration
	if op.read != nil {
		body, _, err := sv.post(root, op.read.path, op.read.body)
		switch {
		case err != nil:
			msg = fmt.Sprintf("read %s: %v", op.read.name, err)
		case !bytes.Equal(body, op.read.want):
			msg = fmt.Sprintf("read %s: body differs from the reference payload", op.read.name)
		}
	} else {
		msg, upload, diverge = sv.write(root, op.write)
	}
	lat := float64(time.Since(due).Nanoseconds()) / 1e6
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if msg != "" {
		p.failures = append(p.failures, msg)
		return
	}
	if op.read != nil {
		p.reads = append(p.reads, lat)
		p.byKind[op.read.endpoint] = append(p.byKind[op.read.endpoint], lat)
		return
	}
	p.writes = append(p.writes, lat)
	p.uploads = append(p.uploads, float64(upload.Nanoseconds())/1e6)
	p.diverges = append(p.diverges, float64(diverge.Nanoseconds())/1e6)
}

// write uploads an edited port and scores it against the app's base.
func (sv *liveServer) write(root *obs.Span, w *writeInput) (msg string, upload, diverge time.Duration) {
	out, upload, err := sv.post(root, "/v1/codebases", w.body)
	if err != nil {
		return fmt.Sprintf("upload %s: %v", w.cb.Model, err), 0, 0
	}
	var up struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &up); err != nil || up.ID != w.id {
		return fmt.Sprintf("upload %s: id %q, want the content hash %q", w.cb.Model, up.ID, w.id), 0, 0
	}
	req, _ := json.Marshal(map[string]string{"a": w.baseID, "b": up.ID, "metric": metric})
	out, diverge, err = sv.post(root, "/v1/diverge", req)
	if err != nil {
		return fmt.Sprintf("diverge %s: %v", w.cb.Model, err), 0, 0
	}
	var d divergeResult
	if err := json.Unmarshal(out, &d); err != nil {
		return fmt.Sprintf("diverge %s: %v", w.cb.Model, err), 0, 0
	}
	w.mu.Lock()
	w.results = append(w.results, d)
	w.mu.Unlock()
	return "", upload, diverge
}

// usedWrites lists the write inputs the run sent, at most max of them.
func usedWrites(writes []*writeInput, max int) []*writeInput {
	var out []*writeInput
	for _, w := range writes {
		if len(w.results) > 0 && len(out) < max {
			out = append(out, w)
		}
	}
	return out
}

// checkWrites compares every write result against the uncached
// package-level core.Diverge over non-incremental indexes of the same
// two codebases. It runs after the window, on nproc goroutines.
func (r *run) checkWrites(writes []*writeInput) error {
	baseIdx := map[string]*core.Index{}
	for _, w := range writes {
		if _, ok := baseIdx[w.app.name]; !ok {
			idx, err := core.IndexCodebase(w.app.ports[w.app.base], core.Options{Workers: r.workers})
			if err != nil {
				return err
			}
			baseIdx[w.app.name] = idx
		}
	}
	used := usedWrites(writes, len(writes))
	errs := make([]error, len(used))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < r.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(used) {
					return
				}
				w := used[i]
				idx, err := core.IndexCodebase(w.cb, core.Options{Workers: 1})
				if err != nil {
					errs[i] = err
					continue
				}
				d, err := core.Diverge(baseIdx[w.app.name], idx, metric)
				if err != nil {
					errs[i] = err
					continue
				}
				w.ref = &writeRef{base: baseIdx[w.app.name], edited: idx}
				want := divergeResult{Raw: d.Raw, DMax: d.DMax, Norm: d.Norm}
				for _, got := range w.results {
					if !sameBits(got, want) {
						errs[i] = fmt.Errorf("write %s/%s: diverge %+v, reference %+v", w.app.name, w.cb.Model, got, want)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.fail("serve-mix: %v", err)
		}
	}
	r.attempted++
	r.checked(fmt.Sprintf("%d distinct writes == uncached core.Diverge", len(used)))
	return nil
}

func sameBits(a, b divergeResult) bool {
	return math.Float64bits(a.Raw) == math.Float64bits(b.Raw) &&
		math.Float64bits(a.DMax) == math.Float64bits(b.DMax) &&
		math.Float64bits(a.Norm) == math.Float64bits(b.Norm)
}

// --- serve decomposition ---------------------------------------------------------------

// decomposeReps is how many repetitions each serve decomposition timing
// takes its median over.
const decomposeReps = 200

// decomposeServe splits a warm babelstream matrix read into its engine
// part (the direct Env call), its render part (payload build and JSON
// encoding of a precomputed result) and the HTTP layer, and counts the
// daemon's allocations per read through an in-process ServeHTTP.
func (r *run) decomposeServe(sv *liveServer, kinds []*readKind) error {
	const app = "babelstream"
	rk := readKindNamed(kinds, "matrix "+app)
	var engine, render, httpRTT []float64
	var m [][]float64
	var order []string
	var idxs map[string]*core.Index
	for i := 0; i < decomposeReps; i++ {
		t0 := time.Now()
		var err error
		if m, order, err = sv.env.Matrix(app, metric); err != nil {
			return err
		}
		if idxs, _, err = sv.env.Indexes(app); err != nil {
			return err
		}
		engine = append(engine, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for i := 0; i < decomposeReps; i++ {
		t0 := time.Now()
		if err := serve.BuildMatrixPayload(app, metric, order, m, idxs).WriteJSON(io.Discard); err != nil {
			return err
		}
		render = append(render, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for i := 0; i < decomposeReps; i++ {
		body, rtt, err := sv.post(nil, rk.path, rk.body)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, rk.want) {
			r.fail("serve decomposition: read body differs from the reference payload")
		}
		httpRTT = append(httpRTT, float64(rtt.Nanoseconds())/1e3)
	}
	r.attempted++
	r.metrics["serve.engine_us"] = median(engine)
	r.metrics["serve.render_us"] = median(render)
	r.metrics["serve.http_overhead_ratio"] = median(httpRTT) / (median(engine) + median(render))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < decomposeReps; i++ {
		req := httptest.NewRequest(http.MethodPost, rk.path, bytes.NewReader(rk.body))
		req.Header.Set("Content-Type", "application/json")
		sv.srv.ServeHTTP(httptest.NewRecorder(), req)
	}
	runtime.ReadMemStats(&ms1)
	r.metrics["serve.read_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / decomposeReps
	r.metrics["serve.read_alloc_bytes"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / decomposeReps
	var total int
	for _, k := range kinds {
		total += len(k.want)
	}
	r.metrics["serve.response_bytes"] = float64(total) / float64(len(kinds))
	return nil
}

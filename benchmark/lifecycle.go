package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"equitruss"
	"equitruss/internal/buildinfo"
	"equitruss/internal/graphio"
)

// plan fixes how long each part of a run measures, as shares of -seconds, so
// a run takes the same time on any commit. At the 30 s the driver passes, a
// load window is half a second.
//
// A run is set-up and then plan.rounds rounds of [repeated phases, serving].
// This machine's speed drifts by a tenth and more over tens of seconds, so a
// metric sampled in one stretch of the run reads whatever that stretch was;
// sampled in every round it sees the same mix of fast and slow stretches in
// every run. In recorded series of builds the median of seven reps spread
// over 100 s varied half as much as that of seven consecutive ones.
type plan struct {
	setups  int           // set-ups per run; setup_s is their median
	rounds  int           // rounds of [repeated phases, serving]
	repBox  time.Duration // least wall time of a round's repeated phases
	minReps int           // least build-build-ready cycles per round, however slow the machine
	segment phasePlan     // a round's read phase, then its update phase
	mixed   phasePlan     // a round's phase of reads and writes together
}

func planFor(seconds float64) plan {
	w := time.Duration(seconds / 60 * float64(time.Second))
	return plan{
		setups: 3, rounds: 2, repBox: 11 * w, minReps: 2,
		segment: phasePlan{window: w, measured: 7},
		mixed:   phasePlan{window: w, measured: 17},
	}
}

// phase is the plan of the workload's load phases.
func (r *run) phase() phasePlan {
	if r.cfg.w.mixed {
		return r.plan.mixed
	}
	return r.plan.segment
}

// stealLine begins the line of a run's log that reports the steal time, in
// percent; -repeat reads it back.
const stealLine = "# steal: other guests took "

// Guard rails: below these a phase's median is not worth reporting.
const (
	minLatencySamples = 30
	maxGeneratorShare = 0.20
)

type config struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string    // where the traced run writes its trace file
	log     io.Writer // human-readable report
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errRefused marks a run whose measurements the guard rails reject.
var errRefused = errors.New("refusing to report")

// fixture is what set-up leaves for the measured phases.
type fixture struct {
	g          *equitruss.Graph
	ref        *equitruss.Index // reference build at TN, hierarchy included
	sums       equitruss.Checksums
	cands      []int32
	graphPath  string
	indexPath  string
	indexBytes int64
	first      request // the request a freshly started server is checked with
}

type run struct {
	cfg   config
	plan  plan
	tn    int
	tr    *spanTracer // nil in the untraced run
	dir   string      // temp directory for the run's files
	fx    fixture
	reps  repSamples
	load  loadOutcome
	dec   decomposed // traced run only
	quiet *slog.Logger
	names []string // metrics in the order they were set
	res   result
	began time.Time
	stole time.Duration // steal time so far when the run began
}

func (r *run) set(name, unit string, v float64) {
	if _, dup := r.res.Metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// attempt counts one checked operation; a non-nil err is a failed one.
func (r *run) attempt(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		if r.res.Failed <= 10 {
			fmt.Fprintf(r.cfg.log, "FAILED: %v\n", err)
		}
	}
}

func (r *run) refuse(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errRefused, fmt.Sprintf(format, args...))
}

// runLifecycle runs one workload once and returns its result. The end-to-end
// metrics come from the untraced run; cfg.trace selects the decomposed run
// that reports the per-layer metrics instead.
func runLifecycle(cfg config) (result, error) {
	tn := min(runtime.NumCPU(), 4)
	prev := runtime.GOMAXPROCS(tn)
	defer runtime.GOMAXPROCS(prev)
	dir, err := os.MkdirTemp("", "equitruss-bench-*")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		cfg: cfg, plan: planFor(cfg.seconds), tn: tn, dir: dir,
		quiet: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
		res:   result{Metrics: map[string]metric{}},
		began: time.Now(), stole: stolen(),
	}
	if cfg.trace {
		r.tr = newSpanTracer(cfg.w.name)
		r.plan.setups = 1
		r.plan.minReps = 1 // each cycle builds composed and decomposed
	}
	fmt.Fprintf(cfg.log, "# workload=%s seed=%d seconds=%g trace=%v nproc=%d TN=%d GOMAXPROCS=%d %s revision=%s\n",
		cfg.w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), tn, runtime.GOMAXPROCS(0), runtime.Version(), buildinfo.Revision())

	steps := []func() error{r.setup}
	for round := 0; round < r.plan.rounds; round++ {
		steps = append(steps, r.cycles, r.serve)
	}
	steps = append(steps, r.report)
	if cfg.trace {
		steps = append(steps, r.layers)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(cfg.log, "# the run took %.1fs\n", time.Since(r.began).Seconds())
	if r.tr != nil {
		file, err := r.tr.write(cfg.outDir)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(cfg.log, "# trace written to %s (open in https://ui.perfetto.dev)\n", file)
	}
	r.res.Correct = r.res.Failed == 0
	for _, name := range r.names {
		fmt.Fprintf(cfg.log, "%-32s %14.6g %s\n", name, r.res.Metrics[name].Value, r.res.Metrics[name].Unit)
	}
	fmt.Fprintf(cfg.log, "ops_attempted %d ops_failed %d\n", r.res.Attempted, r.res.Failed)
	return r.res, nil
}

func (r *run) graph() *equitruss.Graph {
	if r.cfg.smoke {
		return smokeGraph(r.cfg.seed)
	}
	return r.cfg.w.graph(r.cfg.seed)
}

func buildOptions(threads int) equitruss.Options {
	return equitruss.Options{Variant: equitruss.Afforest, Threads: threads, PrecomputeHierarchy: true}
}

// setup generates the graph from the seed, writes the edge-list and v3 index
// files, makes the reference build at TN (which also warms the process up)
// and takes its checksums. It runs plan.setups times; setup_s is the median.
func (r *run) setup() error {
	r.fx.graphPath = filepath.Join(r.dir, "graph.txt")
	r.fx.indexPath = filepath.Join(r.dir, "index.v3")
	var secs []sample
	for i := 0; i < r.plan.setups; i++ {
		r.fx.g, r.fx.ref = nil, nil
		runtime.GC()
		var err error
		secs = append(secs, timeSample(func() time.Duration {
			return r.tr.do("harness.setup", func() { err = r.setupOnce() })
		}))
		if err != nil {
			return err
		}
	}
	fx := &r.fx
	fx.cands = candidates(fx.g, r.cfg.seed)
	if len(fx.cands) < 2 {
		return fmt.Errorf("graph has %d vertices of degree >= 2; nothing to query", len(fx.cands))
	}
	fx.first = request{kind: 'c', v: fx.cands[0], k: 3, vertices: true}
	info, err := os.Stat(fx.indexPath)
	if err != nil {
		return err
	}
	fx.indexBytes = info.Size()

	if r.tr != nil {
		r.set("gen.graph_s", "s", median(r.tr.seconds("gen.graph")))
		r.set("gen.vertices", "count", float64(fx.g.NumVertices()))
		r.set("gen.edges", "count", float64(fx.g.NumEdges()))
		r.set("graphio.write_edgelist_s", "s", median(r.tr.seconds("graphio.write_edgelist")))
		r.set("graphio.write_index_s", "s", median(r.tr.seconds("graphio.write_index")))
		r.set("core.supernodes", "count", float64(fx.ref.SG.NumSupernodes()))
		r.set("core.superedges", "count", float64(fx.ref.SG.NumSuperedges()))
		r.set("community.hierarchy_nodes", "count", float64(fx.ref.Hierarchy().NumNodes()))
		return nil
	}
	setups, _ := undisturbed(secs)
	r.set("setup_s", "s", median(setups))
	// Live heap while holding only the graph and the built index with its
	// hierarchy; a quantity that repeats, unlike the OS's resident set.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_live_mb", "MB", float64(ms.HeapAlloc)/1e6)
	r.set("index_mb", "MB", float64(fx.indexBytes)/1e6)
	return nil
}

func (r *run) setupOnce() error {
	var err error
	fx := &r.fx
	r.tr.do("gen.graph", func() { fx.g = r.graph() })
	r.tr.do("graphio.write_edgelist", func() { err = graphio.WriteEdgeListFile(fx.graphPath, fx.g) })
	if err != nil {
		return err
	}
	r.tr.do("harness.reference_build", func() { fx.ref, err = equitruss.BuildIndex(fx.g, buildOptions(r.tn)) })
	if err != nil {
		return err
	}
	r.tr.do("graphio.write_index", func() { err = equitruss.SaveIndexFile(fx.indexPath, fx.ref.SG) })
	if err != nil {
		return err
	}
	r.tr.do("community.checksums", func() { fx.sums = fx.ref.Checksums() })
	return nil
}

// repSamples are the repeated phases' times, in seconds, over all rounds.
type repSamples struct {
	t1, tn, ready []sample
	allocMB       []float64 // bytes one 1-thread build allocated
}

// cycles runs one round's repeated phases — build at one thread (the paper's
// baseline), build at TN threads (its headline), cold start — round-robin, with
// a forced GC before each rep, until plan.minReps cycles have run and
// plan.repBox has passed. Each metric is the median rep over all rounds, with
// the steal time taken out (undisturbed). The traced run follows every
// composed build with the decomposed one, so the two are compared rep for rep.
func (r *run) cycles() error {
	build := func(threads int, suffix string, secs *[]sample) error {
		runtime.GC()
		var ix *equitruss.Index
		var alloc uint64
		var err error
		*secs = append(*secs, timeSample(func() (d time.Duration) {
			ix, d, alloc, err = buildComposed(r.fx.g, threads)
			return d
		}))
		if err != nil {
			return err
		}
		if threads == 1 {
			r.reps.allocMB = append(r.reps.allocMB, float64(alloc)/1e6)
		}
		r.attempt(r.checkBuild("BuildIndex"+suffix, ix))
		if r.tr == nil {
			return nil
		}
		runtime.GC()
		if ix, err = r.buildDecomposed(threads, suffix); err != nil {
			return err
		}
		r.attempt(r.checkBuild("decomposed build"+suffix, ix))
		return nil
	}
	start := time.Now()
	for i := 0; i < r.plan.minReps || time.Since(start) < r.plan.repBox; i++ {
		if err := build(1, "_t1", &r.reps.t1); err != nil {
			return err
		}
		if err := build(r.tn, "", &r.reps.tn); err != nil {
			return err
		}
		for j, slice := 0, time.Now(); j < minReadyPerCycle || time.Since(slice) < r.plan.segment.window; j++ {
			runtime.GC()
			var body []byte
			var err error
			r.reps.ready = append(r.reps.ready, timeSample(func() (d time.Duration) {
				d, body, err = r.readyOnce(r.tr)
				return d
			}))
			if err != nil {
				return err
			}
			r.attempt(checkResponse(r.fx.ref, sampledResponse{req: r.fx.first, body: body}, true))
		}
	}
	return nil
}

// report applies the guard rails to what the rounds measured and sets the
// metrics: the end-to-end ones, or in the traced run those of the repeated
// phases' layers. Times and rates are medians with the steal time taken out
// (undisturbed, undisturbedRates); latencies are medians over the steady
// windows.
func (r *run) report() error {
	reps, width := r.reps, r.phase().window
	reads, writes := r.load.reads, r.load.writes
	box := float64(r.plan.rounds) * r.plan.repBox.Seconds()
	t1 := walls(reps.t1)
	switch total := float64(len(t1)) * median(t1); {
	case !r.cfg.smoke && total < box/6:
		// Too little work for a median worth reporting; the smoke graph is
		// that small on purpose.
		return r.refuse("build_t1_s: %d reps x median %.4fs = %.3fs, under a sixth of the %.3gs given to the repeated phases", len(t1), median(t1), total, box)
	case len(latencies(reads)) < minLatencySamples:
		return r.refuse("read phases: %d latency samples, fewer than %d", len(latencies(reads)), minLatencySamples)
	case len(latencies(writes)) < minLatencySamples && r.load.writeFailed == 0:
		return r.refuse("update phases: %d latency samples, fewer than %d", len(latencies(writes)), minLatencySamples)
	case r.load.genFrac > maxGeneratorShare:
		return r.refuse("read phases: a client spent %.0f%% of a phase building requests; the generator is the bottleneck", r.load.genFrac*100)
	}
	elapsed := time.Since(r.began)
	stealFrac := float64(stolen()-r.stole) / float64(elapsed) / float64(runtime.NumCPU())
	fmt.Fprintf(r.cfg.log, stealLine+"%.1f%% of the %d vCPUs' time over the run's %.1fs\n", stealFrac*100, runtime.NumCPU(), elapsed.Seconds())
	if r.tr != nil {
		r.set("harness.steal_frac", "ratio", stealFrac)
		r.reportBuildLayers(t1, walls(reps.tn))
		return nil
	}
	for _, m := range []struct {
		name string
		reps []sample
	}{{"build_t1_s", reps.t1}, {"build_s", reps.tn}, {"ready_s", reps.ready}} {
		secs, beta := undisturbed(m.reps)
		r.set(m.name, "s", median(secs))
		fmt.Fprintf(r.cfg.log, "# %s: %d reps, median wall %.6g s, quartile spread %.1f%%; %.2f of the steal time taken out, spread %.1f%%\n",
			m.name, len(secs), median(walls(m.reps)), iqrFrac(walls(m.reps))*100, beta, iqrFrac(secs)*100)
	}
	r.set("build_alloc_mb", "MB", median(reps.allocMB))
	for _, m := range []struct {
		rate, unit, latency string
		windows             []window
	}{{"read_qps", "queries/s", "read_p50_ms", reads}, {"update_ops_per_s", "ops/s", "update_visible_p50_ms", writes}} {
		perSecond, beta := undisturbedRates(m.windows, width)
		calm := steady(m.windows)
		r.set(m.rate, m.unit, median(perSecond))
		r.set(m.latency, "ms", median(latencies(calm)))
		fmt.Fprintf(r.cfg.log, "# %s: %d windows, median %.6g %s, quartile spread %.1f%%; %.2f of the steal time taken out, spread %.1f%%; %s over %d requests in %d steady windows (all: %.6g ms over %d)\n",
			m.rate, len(m.windows), median(rates(m.windows, width)), m.unit, iqrFrac(rates(m.windows, width))*100, beta, iqrFrac(perSecond)*100,
			m.latency, len(latencies(calm)), len(calm), median(latencies(m.windows)), len(latencies(m.windows)))
	}
	return nil
}

// Cold starts follow each pair of builds for a load window, and at least
// minReadyPerCycle of them: a cold start is several times shorter than a
// build, on rmat-skew fifteen times, and its reps vary more.
const minReadyPerCycle = 2

// buildComposed is one BuildIndex call, with the bytes it allocated.
func buildComposed(g *equitruss.Graph, threads int) (*equitruss.Index, time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ix, err := equitruss.BuildIndex(g, buildOptions(threads))
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return ix, d, after.TotalAlloc - before.TotalAlloc, err
}

func (r *run) checkBuild(what string, ix *equitruss.Index) error {
	var got equitruss.Checksums
	r.tr.do("community.checksums", func() { got = ix.Checksums() })
	if got != r.fx.sums {
		return fmt.Errorf("%s: checksums %+v differ from the set-up reference %+v", what, got, r.fx.sums)
	}
	return nil
}

// loadOutcome is what the load phases of all rounds observed.
type loadOutcome struct {
	rounds        int              // serving rounds run so far
	reads, writes []window         // the measured windows of the read and of the update phases
	respBytes     int64            // bytes of the measured read responses
	genFrac       float64          // largest share of a phase a reader spent building requests
	writeFailed   int              // update batches refused or mis-sequenced
	counters      map[string]int64 // the server's counters, as deltas summed over the phases
}

// httpServer is a handler served on a loopback port.
type httpServer struct {
	base string
	srv  *http.Server
	done chan error
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

func (r *run) serveOptions(stats equitruss.LoadStats) equitruss.ServeOptions {
	return equitruss.ServeOptions{Logger: r.quiet, IndexLoadSeconds: stats.Seconds, MmapBytes: stats.MmapBytes}
}

// readyOnce is one cold start — what a restart costs, minus exec: parse the
// edge list, open the v3 index file with eager verification, build the handler
// (which publishes: hierarchy and checksums) and answer a first GET /community
// over loopback. With a tracer each step is a span, and the hierarchy — which
// the handler's publish would otherwise build lazily — is prepared by an
// explicit call so that it shows as its own layer.
func (r *run) readyOnce(tr *spanTracer) (time.Duration, []byte, error) {
	var err error
	var body bytes.Buffer
	d := tr.do("harness.ready", func() {
		var g *equitruss.Graph
		tr.do("graphio.read_edgelist", func() { g, err = equitruss.LoadEdgeList(r.fx.graphPath) })
		if err != nil {
			return
		}
		var ix *equitruss.Index
		var stats equitruss.LoadStats
		tr.do("graphio.open_index", func() { ix, stats, err = equitruss.OpenIndexFile(r.fx.indexPath, g, equitruss.VerifyEager) })
		if err != nil {
			return
		}
		if tr != nil {
			tr.do("community.hierarchy_ready", func() { _, err = ix.PrepareHierarchy(context.Background(), 0, nil) })
			if err != nil {
				return
			}
		}
		var h http.Handler
		tr.do("server.newhandler", func() { h = equitruss.NewHandler(ix, r.serveOptions(stats)) })
		tr.do("server.first_answer", func() {
			var srv *httpServer
			if srv, err = serveHTTP(h); err != nil {
				return
			}
			defer srv.close()
			hc := keepAliveClient()
			defer hc.CloseIdleConnections()
			var req *http.Request
			if req, err = r.fx.first.httpRequest(srv.base); err != nil {
				return
			}
			var status int
			if status, err = roundTrip(hc, req, &body); err == nil && status != http.StatusOK {
				err = fmt.Errorf("first GET /community: status %d", status)
			}
		})
	})
	return d, body.Bytes(), err
}

// serve is one round's serving: it starts a live server over the base graph
// (OpenLive + NewLiveHandler on 127.0.0.1:0, fresh state directory, WAL policy
// never, update mode auto, default compaction and LRU), runs the round's load
// phases against it over loopback HTTP, checks the outcome and shuts it down.
func (r *run) serve() error {
	round := r.load.rounds
	r.load.rounds++
	li, err := equitruss.OpenLive(context.Background(), r.fx.g, equitruss.LiveOptions{
		Dir: filepath.Join(r.dir, fmt.Sprintf("state-%d", round)), SyncPolicy: "never",
		Variant: equitruss.Afforest, Threads: r.tn, UpdateMode: "auto", Logger: r.quiet,
	})
	if err != nil {
		return err
	}
	defer li.Close()
	h, stop, err := equitruss.NewLiveHandler(li, r.serveOptions(equitruss.LoadStats{}))
	if err != nil {
		return err
	}
	defer stop()
	srv, err := serveHTTP(h)
	if err != nil {
		return err
	}
	defer srv.close()

	w, seed, n := r.cfg.w, r.cfg.seed, r.fx.g.NumVertices()
	firstClient := round * r.tn // every round's readers draw streams of their own
	before := counterSnapshot()
	var rd readResult
	var wr writeResult
	plan := r.phase()
	if w.mixed {
		// Reads and writes together: TN-1 readers beside the one writer.
		start := time.Now()
		steal := watchSteal(start, plan)
		done := make(chan writeResult)
		go func() { done <- runWriter(srv.base, seed, n, plan, start) }()
		rd = runReaders(srv.base, w, r.fx.cands, seed, firstClient, max(1, r.tn-1), plan, start)
		wr = <-done
		steal(rd.windows)
		steal(wr.windows)
	} else {
		start := time.Now()
		steal := watchSteal(start, plan)
		rd = runReaders(srv.base, w, r.fx.cands, seed, firstClient, r.tn, plan, start)
		steal(rd.windows)
		start = time.Now()
		steal = watchSteal(start, plan)
		wr = runWriter(srv.base, seed, n, plan, start)
		steal(wr.windows)
	}
	if r.load.counters == nil {
		r.load.counters = map[string]int64{}
	}
	for name, v := range counterSnapshot() {
		r.load.counters[name] += v - before[name]
	}
	r.load.reads = append(r.load.reads, rd.windows[warmup:]...)
	r.load.writes = append(r.load.writes, wr.windows[warmup:]...)
	r.load.respBytes += rd.respBytes
	r.load.genFrac = max(r.load.genFrac, rd.genFrac)
	r.load.writeFailed += wr.failed

	// Correctness, outside the timed windows.
	r.res.Attempted += rd.attempted + wr.attempted
	r.res.Failed += rd.failed + wr.failed
	for _, s := range rd.sampled {
		r.attempt(checkResponse(r.fx.ref, s, !w.mixed))
	}
	r.attempt(r.checkFinalState(srv.base, wr.applied))
	return nil
}

// checkFinalState compares the serving state's checksums, as GET /healthz
// reports them, with an independent from-scratch Serial rebuild of the edge
// set the harness tracked.
func (r *run) checkFinalState(base string, applied int) error {
	hc := keepAliveClient()
	defer hc.CloseIdleConnections()
	doc, err := getHealth(hc, base)
	if err != nil {
		return err
	}
	if doc.AppliedSeq != uint64(applied) {
		return fmt.Errorf("after the update phase: applied_seq %d, harness applied %d batches", doc.AppliedSeq, applied)
	}
	want, err := rebuildChecksums(finalEdges(r.fx.g, r.cfg.seed, applied))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(doc.Checksums, want) {
		return fmt.Errorf("after %d update batches: /healthz checksums %v, Serial rebuild %v", applied, doc.Checksums, want)
	}
	return nil
}

func counterSnapshot() map[string]int64 {
	out := map[string]int64{}
	for _, c := range equitruss.Counters() {
		out[c.Name] = c.Value
	}
	return out
}

// Command benchsuite reproduces every table and figure of the paper's
// evaluation section on the synthetic dataset surrogates. Each experiment
// prints the same rows/series the paper reports; absolute numbers differ
// (laptop + surrogate graphs vs. 128-core Perlmutter + SNAP datasets) but
// the shapes — kernel dominance, variant ordering, scaling curves — are the
// reproduction target. See EXPERIMENTS.md for recorded paper-vs-measured
// comparisons.
//
// At the end of a run benchsuite checks those shapes: every predicate in
// predicates.go whose experiment ran prints one line with its measured
// margin, and the run exits 1 if any fails. `make benchcheck` is this with
// the experiments the predicates read.
//
// Usage:
//
//	benchsuite -experiment all -scale 0.25
//	benchsuite -experiment fig5 -scale 1.0
//	benchsuite -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"equitruss/internal/concur"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

type experiment struct {
	id    string
	title string
	run   func(cfg config)
	// onlyExplicit experiments are skipped by -experiment all: they are
	// either too slow for a routine sweep (rmat18) or meaningful only with
	// dedicated flags.
	onlyExplicit bool
}

type config struct {
	scale   float64 // dataset size factor
	maxThr  int     // top of the thread sweep
	verbose bool
	sink    *tsvSink       // optional TSV mirror of every table
	art     *benchArtifact // run artifact; emit appends every table
	// hist collects every individual timed repetition of the current
	// experiment (fresh per experiment), so the artifact reports latency
	// quantiles over the actual sample population, not just min-of-reps.
	hist *obs.Histogram
}

// observe records one timed repetition into the current experiment's
// latency histogram (nil-safe for direct test calls of run functions).
func (cfg config) observe(d time.Duration) {
	if cfg.hist != nil {
		cfg.hist.Observe(d)
	}
}

var experiments = []experiment{
	{"tab3", "Table 3: dataset inventory", runTab3, false},
	{"fig2", "Figure 2: serial pipeline kernel breakdown (%)", runFig2, false},
	{"fig4", "Figure 4: Baseline parallel kernel breakdown (%), 1 thread", runFig4, false},
	{"fig5", "Figure 5: single-thread SpNode speedup by variant", runFig5, false},
	{"fig6", "Figure 6: strong scaling of index construction", runFig6, false},
	{"fig7", "Figure 7: SpNode scaling on friendster-sim", runFig7, false},
	{"fig8", "Figure 8: kernel breakdown across thread counts", runFig8, false},
	{"fig9", "Figure 9: parallel efficiency", runFig9, false},
	{"tab4", "Table 4: single-thread comparison incl. Original (serial)", runTab4, false},
	{"tab5", "Table 5: index sizes and parallel speedups", runTab5, false},
	{"peel", "Peel kernel sweep: levelsync vs serial vs pkt", runPeel, false},
	{"query", "Query path: hierarchy vs indexed-BFS vs DirectCommunities", runQuery, false},
	{"rmat18", "RMAT scale-18 skewed graph: Support + Decompose by every peel kernel", runRMAT18, true},
}

func main() { os.Exit(run(os.Args[1:])) }

// run executes one benchsuite invocation and returns its exit status: 2 for
// bad arguments, 1 when the artifact cannot be written or a benchcheck
// predicate fails, 0 otherwise.
func run(args []string) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	expID := fs.String("experiment", "all", "comma-separated experiment ids (tab3, fig2, ..., peel, query, rmat18) or 'all'")
	scale := fs.Float64("scale", 0.25, "dataset size factor (1.0 = paper-surrogate default size)")
	maxThr := fs.Int("maxthreads", concur.MaxThreads(), "top of the thread sweep (at least 1)")
	list := fs.Bool("list", false, "list experiments and exit")
	verbose := fs.Bool("v", false, "verbose progress")
	outDir := fs.String("out", "", "directory for TSV copies of every table (plot-ready)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-7s %s\n", e.id, e.title)
		}
		return 0
	}
	if *maxThr < 1 {
		fmt.Fprintf(os.Stderr, "benchsuite: -maxthreads must be at least 1, got %d\n", *maxThr)
		return 2
	}
	art := &benchArtifact{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GitRev:     gitRev(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      *scale,
		MaxThreads: *maxThr,
	}
	cfg := config{scale: *scale, maxThr: *maxThr, verbose: *verbose, art: art}
	if *outDir != "" {
		cfg.sink = &tsvSink{dir: *outDir}
	}
	fmt.Printf("# benchsuite: %d CPUs, GOMAXPROCS=%d, scale=%.2f, rev=%s\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.scale, art.GitRev)
	wanted := map[string]bool{}
	for _, id := range strings.Split(*expID, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[id] = true
		}
	}
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.id] = true
	}
	for id := range wanted {
		if !known[id] {
			fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q (use -list)\n", id)
			return 2
		}
	}
	ran := map[string]bool{}
	for _, e := range experiments {
		if (wanted["all"] && !e.onlyExplicit) || wanted[e.id] {
			fmt.Printf("== %s ==\n", e.title)
			cfg.hist = obs.NewHistogram("exp_"+e.id, e.title)
			start := time.Now()
			e.run(cfg)
			wall := time.Since(start)
			res := experimentResult{ID: e.id, Title: e.title, Seconds: wall.Seconds()}
			if sum := cfg.hist.Snapshot().Summary(); sum.Count > 0 {
				res.Latency = &latencyDoc{
					Samples:    sum.Count,
					MeanSec:    sum.Mean.Seconds(),
					P50Seconds: sum.P50.Seconds(),
					P95Seconds: sum.P95.Seconds(),
					P99Seconds: sum.P99.Seconds(),
				}
				fmt.Printf("(latency over %d timed reps: p50=%v p95=%v p99=%v)\n",
					sum.Count, sum.P50.Round(time.Microsecond),
					sum.P95.Round(time.Microsecond), sum.P99.Round(time.Microsecond))
			}
			fmt.Printf("(experiment wall time: %v)\n\n", wall.Round(time.Millisecond))
			art.Experiments = append(art.Experiments, res)
			ran[e.id] = true
		}
	}
	if len(ran) == 0 {
		fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q (use -list)\n", *expID)
		return 2
	}
	art.Counters = obs.DefaultRegistry().Snapshot()
	path, err := writeArtifact(*outDir, *art)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: artifact: %v\n", err)
		return 1
	}
	fmt.Printf("# artifact written to %s\n", path)
	failed := 0
	for _, p := range predicates {
		if !ran[p.experiment] {
			continue
		}
		line, ok := p.check(art.Tables)
		fmt.Println(line)
		if !ok {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchsuite: benchcheck FAILED: %d predicate(s) failed\n", failed)
		return 1
	}
	return 0
}

// gitRev identifies the commit a benchmark artifact was produced at, so
// BENCH_*.json files are comparable across the repo's history. Binaries
// built with module VCS stamping carry it in build info; `go run` from a
// work tree does not, so fall back to asking git directly.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// benchArtifact is the machine-readable record of one benchsuite run,
// written as BENCH_<timestamp>.json so perf trajectories can be compared
// across commits without scraping stdout.
type benchArtifact struct {
	Timestamp   string             `json:"timestamp"`
	GitRev      string             `json:"git_rev"`
	CPUs        int                `json:"cpus"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Scale       float64            `json:"scale"`
	MaxThreads  int                `json:"max_threads"`
	Experiments []experimentResult `json:"experiments"`
	Tables      []*table           `json:"tables"`
	Counters    []obs.CounterValue `json:"counters,omitempty"`
}

type experimentResult struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	// Latency summarizes the distribution of the experiment's individual
	// timed repetitions (present only for experiments that time reps).
	// Purely informational: the benchcheck predicates read only the tables'
	// min-of-reps seconds, never these quantiles.
	Latency *latencyDoc `json:"latency,omitempty"`
}

// latencyDoc is the per-experiment latency quantile summary in BENCH_*.json.
type latencyDoc struct {
	Samples    int64   `json:"samples"`
	MeanSec    float64 `json:"mean_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// writeArtifact writes the artifact into dir (cwd when empty) and returns
// the path.
func writeArtifact(dir string, art benchArtifact) (string, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	name := "BENCH_" + time.Now().UTC().Format("20060102T150405Z") + ".json"
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// --- shared helpers ---------------------------------------------------------

// graphCache avoids regenerating the same surrogate across experiments in
// an "all" run.
var graphCache = map[string]*graph.Graph{}

func dataset(cfg config, name string) *graph.Graph {
	key := fmt.Sprintf("%s@%.3f", name, cfg.scale)
	if g, ok := graphCache[key]; ok {
		return g
	}
	spec, err := gen.FindDataset(name)
	if err != nil {
		panic(err)
	}
	g := spec.Generate(cfg.scale)
	graphCache[key] = g
	return g
}

// tauCache holds trussness per dataset so repeated experiments share the
// decomposition, peeled by the kernel the auto rule picks as in a build.
var tauCache = map[string][]int32{}

func trussness(cfg config, name string, g *graph.Graph) []int32 {
	key := fmt.Sprintf("%s@%.3f", name, cfg.scale)
	if tau, ok := tauCache[key]; ok {
		return tau
	}
	sup := testkit.Supports(g, 0)
	tau, _ := testkit.Tau(g, sup, truss.PeelAuto, 0)
	tauCache[key] = tau
	return tau
}

func threadSweep(maxThr int) []int {
	var out []int
	for t := 1; t <= maxThr; t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != maxThr {
		out = append(out, maxThr)
	}
	return out
}

func pct(part, total time.Duration) float64 { return 100 * ratio(secs(part), secs(total)) }

// ratio is num/den, or 0 for a zero den: tables reach the JSON artifact,
// which has no encoding for an infinite speedup.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func secs(d time.Duration) float64 { return d.Seconds() }

// fourNets is the four-network set used by Figures 4 and 5 (DBLP, YouTube,
// LiveJournal, Orkut in the paper; Amazon swaps in for Figure 2 and
// Table 4; friendster-sim is Figure 7 only).
var fourNets = []string{"dblp-sim", "youtube-sim", "livejournal-sim", "orkut-sim"}

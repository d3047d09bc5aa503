package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/graphio"
	"equitruss/internal/mmapio"
	"equitruss/internal/testkit"
)

// The coldstart experiment measures the tentpole claim of the v3 index
// layout: time from "index file on disk" to "first community answer
// served", the restart-latency path. Three loaders run over the same built
// index:
//
//   - v2-decode: the sequential checksummed stream decode plus the eager
//     vertex→supernode seed-CSR build — what a pre-v3 server paid on boot.
//   - v3-mmap-eager: zero-copy mmap of the flat layout with all section
//     checksums verified before the first query.
//   - v3-mmap-lazy: the same mapping with checksum verification deferred to
//     a background sweep; structural validation still runs up front.
//
// Every loader must produce byte-identical answers and identical
// τ/summary/hierarchy checksums — the run panics on any disagreement, so a
// fast-but-wrong load path can never post a time.
const (
	coldstartEdgeFactor = 8
	coldstartSeed       = 42
	coldstartReps       = 3
)

// coldstartScale maps the -scale factor onto an RMAT scale: 18 at the
// paper-surrogate size (-scale 1), shrinking by one scale step per halving,
// clamped to [12, 18] so even a tiny sweep exercises a nontrivial index.
func coldstartScale(sizeFactor float64) int {
	s := rmat18Scale
	if sizeFactor > 0 {
		s += int(math.Floor(math.Log2(sizeFactor)))
	}
	if s < 12 {
		s = 12
	}
	if s > rmat18Scale {
		s = rmat18Scale
	}
	return s
}

// coldstartLoaders is the sweep order. v2-decode first: the check mode
// normalizes the mmap loaders' times by the same run's decode time.
const coldstartV2Loader = "v2-decode"

var coldstartLoaders = []string{coldstartV2Loader, "v3-mmap-eager", "v3-mmap-lazy"}

// runColdstart builds one index, stores it in both layouts, and times each
// loader from file open to first community answer.
func runColdstart(cfg config) {
	scale := coldstartScale(cfg.scale)
	g := gen.RMAT(scale, coldstartEdgeFactor, 0.57, 0.19, 0.19, coldstartSeed)
	name := fmt.Sprintf("rmat%d", scale)
	fmt.Printf("%s: %d vertices, %d edges\n", name, g.NumVertices(), g.NumEdges())

	sup := testkit.Supports(g, cfg.kernel, cfg.maxThr)
	tau, kmax := testkit.Tau(g, sup, cfg.peel, cfg.maxThr)
	sg, _ := testkit.Summary(g, tau, core.VariantAfforest, cfg.maxThr)

	// The fixed query: the max-trussness community of the first edge that
	// attains kmax — deterministic, and the strongest community in the
	// graph, the natural "is the server up" probe.
	qv, qk := int32(-1), kmax
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if tau[e] == kmax {
			qv = g.Edge(e).U
			break
		}
	}
	if qv < 0 {
		panic(fmt.Sprintf("coldstart: %s has no edge at kmax=%d", name, kmax))
	}

	dir, err := os.MkdirTemp("", "benchsuite-coldstart-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	paths := map[string]string{
		coldstartV2Loader: filepath.Join(dir, "index.v2"),
		"v3-mmap-eager":   filepath.Join(dir, "index.v3"),
		"v3-mmap-lazy":    filepath.Join(dir, "index.v3"),
	}
	if err := graphio.WriteBinaryIndexFileFormat(paths[coldstartV2Loader], sg, graphio.FormatV2); err != nil {
		panic(err)
	}
	if err := graphio.WriteBinaryIndexFileFormat(paths["v3-mmap-eager"], sg, graphio.FormatV3); err != nil {
		panic(err)
	}

	t := newTable("Graph", "Loader", "Seconds", "IndexMB", "MmapMB", "HeapMB", "vsV2")
	v2Sec := 0.0
	var want uint64
	for i, loader := range coldstartLoaders {
		res := timeColdstart(cfg, g, loader, paths[loader], qv, qk)
		if i == 0 {
			v2Sec, want = res.seconds, res.checksum
		} else if res.checksum != want {
			panic(fmt.Sprintf("coldstart loader %s disagrees with %s on %s: checksum %#x != %#x",
				loader, coldstartV2Loader, name, res.checksum, want))
		}
		t.row(name, loader, res.seconds, float64(res.indexBytes)/1e6,
			float64(res.mmapBytes)/1e6, float64(res.heapBytes)/1e6, v2Sec/res.seconds)
		if cfg.art != nil {
			cfg.art.ColdstartBench = append(cfg.art.ColdstartBench, coldstartRow{
				Dataset: name, Loader: loader, Seconds: res.seconds,
				IndexBytes: res.indexBytes, MmapBytes: res.mmapBytes,
				HeapBytes: res.heapBytes, Checksum: res.checksum,
			})
		}
	}
	emit(cfg.sink, "coldstart", "", t)
}

type coldstartResult struct {
	seconds    float64 // min over reps: open → first community answer
	indexBytes int64
	mmapBytes  int64
	heapBytes  int64 // heap growth across the first load (v3: ~0, the arrays live in the mapping)
	checksum   uint64
}

// timeColdstart runs one loader's open→first-answer path coldstartReps
// times, keeping the minimum, then fingerprints the final rep's full
// serving state (τ/summary/hierarchy checksums plus the answer itself) for
// the cross-loader agreement check.
func timeColdstart(cfg config, g *graph.Graph, loader, path string, qv, qk int32) coldstartResult {
	info, err := os.Stat(path)
	if err != nil {
		panic(err)
	}
	res := coldstartResult{indexBytes: info.Size()}

	load := func() (*community.Index, []*community.Community) {
		switch loader {
		case coldstartV2Loader:
			sg, err := graphio.ReadBinaryIndexFile(path)
			if err != nil {
				panic(err)
			}
			idx := community.NewIndex(g, sg)
			return idx, idx.CommunitiesBFS(qv, qk)
		case "v3-mmap-eager", "v3-mmap-lazy":
			mode := graphio.VerifyEager
			if loader == "v3-mmap-lazy" {
				mode = graphio.VerifyLazy
			}
			sg, m, err := graphio.MapIndexFile(path, mode)
			if err != nil {
				panic(err)
			}
			res.mmapBytes = int64(m.Len())
			idx := community.NewIndexDeferred(g, sg)
			return idx, idx.CommunitiesBFS(qv, qk)
		default:
			panic("unknown coldstart loader " + loader)
		}
	}

	var idx *community.Index
	var answer []*community.Community
	for rep := 0; rep < coldstartReps; rep++ {
		// On the first rep, bracket the load with heap readings (after a
		// forced GC) to measure what the loader allocates: the v2 decode
		// materializes all seven arrays on the heap, the v3 loaders leave
		// them in the mapping.
		var ms0 runtime.MemStats
		if rep == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
		}
		start := time.Now()
		idx, answer = load()
		d := time.Since(start)
		if rep == 0 {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			res.heapBytes = int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)
		}
		cfg.observe(d)
		if sec := d.Seconds(); rep == 0 || sec < res.seconds {
			res.seconds = sec
		}
	}

	// Everything below is agreement checking, outside the timed region: the
	// answer fingerprint plus the full serving-state checksums (which force
	// the hierarchy build — deliberately not part of first-answer latency,
	// since serving builds it behind the published epoch).
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	word(uint64(len(answer)))
	for _, c := range answer {
		word(uint64(c.K))
		word(uint64(len(c.Edges)))
		for _, e := range c.Edges {
			word(uint64(uint32(e)))
		}
	}
	sums := idx.Checksums()
	word(sums.Tau)
	word(sums.Summary)
	word(sums.Hierarchy)
	res.checksum = h.Sum64()

	// A lazy mapping must also finish its background sweep clean before the
	// loader may report success.
	if loader == "v3-mmap-lazy" {
		m := idx.SG.Backing.(*mmapio.Mapping)
		deadline := time.Now().Add(30 * time.Second)
		for !m.VerifyDone() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if !m.VerifyDone() {
			panic("coldstart lazy verify never finished")
		}
		if err := m.VerifyErr(); err != nil {
			panic(fmt.Sprintf("coldstart lazy verify: %v", err))
		}
	}
	return res
}

// checkColdstartRows gates each mmap loader's open→first-answer time
// normalized by the same run's v2-decode time — the cold-start advantage
// the v3 layout exists for. Same ratio-of-ratios and loud-failure
// discipline as the other gates.
func checkColdstartRows(base, art *benchArtifact) (int, error) {
	baseV2 := coldstartV2Seconds(base.ColdstartBench)
	curV2 := coldstartV2Seconds(art.ColdstartBench)
	checked := 0
	for _, row := range art.ColdstartBench {
		if row.Loader == coldstartV2Loader {
			continue
		}
		cv, okC := curV2[row.Dataset]
		if !okC {
			return checked, fmt.Errorf("coldstart %s/%s: current run has no v2-decode row to normalize by (run the full coldstart sweep)",
				row.Dataset, row.Loader)
		}
		bv, okB := baseV2[row.Dataset]
		if !okB {
			return checked, fmt.Errorf("coldstart %s/%s: baseline %s has no v2-decode row for this dataset (regenerate the baseline)",
				row.Dataset, row.Loader, base.GitRev)
		}
		if bv < checkNoiseFloorSec || cv < checkNoiseFloorSec {
			continue
		}
		baseSec, found := findColdstartRow(base.ColdstartBench, row.Dataset, row.Loader)
		if !found {
			return checked, fmt.Errorf("coldstart %s/%s: no baseline row in %s — the gate cannot pass by omission (regenerate the baseline)",
				row.Dataset, row.Loader, base.GitRev)
		}
		// An mmap load is sub-millisecond by design, so the usual "skip
		// sub-noise cells" rule would disarm this gate permanently. Clamp
		// sub-floor times to the floor instead: jitter below the floor never
		// trips the margin, but the regression the gate exists for — the mmap
		// path sliding back toward decode cost — lands far above it.
		curRatio := math.Max(row.Seconds, checkNoiseFloorSec) / cv
		baseRatio := math.Max(baseSec, checkNoiseFloorSec) / bv
		checked++
		if curRatio > baseRatio*checkMargin {
			return checked, fmt.Errorf("%s/%s: normalized cold-start time %.4f (was %.4f in baseline %s) — >%.0f%% regression",
				row.Dataset, row.Loader, curRatio, baseRatio, base.GitRev, (checkMargin-1)*100)
		}
		fmt.Printf("# benchcheck coldstart %s/%-13s ratio %.4f vs baseline %.4f ok\n",
			row.Dataset, row.Loader, curRatio, baseRatio)
	}
	return checked, nil
}

// findColdstartRow looks up a (dataset, loader) cell's seconds.
func findColdstartRow(rows []coldstartRow, dataset, loader string) (float64, bool) {
	for _, r := range rows {
		if r.Dataset == dataset && r.Loader == loader {
			return r.Seconds, true
		}
	}
	return 0, false
}

// coldstartV2Seconds indexes the decode loader's time per dataset.
func coldstartV2Seconds(rows []coldstartRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if r.Loader == coldstartV2Loader {
			out[r.Dataset] = r.Seconds
		}
	}
	return out
}

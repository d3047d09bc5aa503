package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// supportReps is how many times each Support cell is timed; the minimum is
// recorded. Min-of-N is the standard defense against scheduler noise for
// short single-process benchmarks.
const supportReps = 3

// rmat18Scale and rmat18EdgeFactor define the skewed stress graph from the
// acceptance criteria: 2^18 vertices, ~2M undirected edges, heavy-tailed
// degree distribution, the shape the Support kernel's O(m^1.5) bound is
// for.
const (
	rmat18Scale      = 18
	rmat18EdgeFactor = 8
	rmat18Seed       = 42
)

// runRMAT18 builds the scale-18 RMAT graph and times the Support stage,
// then times every peel kernel on its supports, as the peel sweep does, so
// the artifact also witnesses the supports feed a correct downstream τ. The
// decomposition runs for seconds at this scale, so each kernel is timed
// once. Excluded from `-experiment all`: it is the committed-artifact
// producer, run explicitly.
func runRMAT18(cfg config) {
	g := gen.RMAT(rmat18Scale, rmat18EdgeFactor, 0.57, 0.19, 0.19, rmat18Seed)
	fmt.Printf("rmat18: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	secs, sums := timeCells(cfg, supportReps, []cell{supportCell(g, cfg.maxThr)})
	sup := testkit.Supports(g, cfg.maxThr)
	pick := truss.ChoosePeelKernel(g.NumEdges(), slices.Max(sup), cfg.maxThr)
	peelSecs, tauSums := timePeelKernels(cfg, 1, "rmat18", g, sup)
	t := newTable("Graph", "Peel", "Support(s)", "Decompose(s)", "Auto", "SupSum", "TauSum")
	for i, k := range peelKernels {
		t.row("rmat18", k.String(), secs[0], peelSecs[i], k == pick, sums[0], tauSums[i])
	}
	emit(cfg, "rmat18", "", t)
}

// cell is one timed workload of a sweep: run is what the clock covers, sum
// the checksum of what the last run produced.
type cell struct {
	run func()
	sum func() uint64
}

// supportCell is the Support stage of g.
func supportCell(g *graph.Graph, threads int) cell {
	var sup []int32
	return cell{
		run: func() { sup = testkit.Supports(g, threads) },
		sum: func() uint64 { return checksumInt32(sup) },
	}
}

// timeCells times every cell reps times and returns each cell's minimum
// seconds and answer checksum. The reps are interleaved — one run of every
// cell per round — so the cells a predicate compares sit in the same
// stretch of machine load: on a shared box contention comes in bursts
// longer than one cell's reps, and timing cells back to back lets a burst
// inflate one side of a comparison but not the other. Every individual run
// is also observed into the experiment's latency histogram, so the
// artifact's quantiles describe the full sample population while the
// min-of-reps keeps the compared times noise-resistant.
func timeCells(cfg config, reps int, cells []cell) ([]float64, []uint64) {
	secs := make([]float64, len(cells))
	for r := 0; r < reps; r++ {
		for i, c := range cells {
			start := time.Now()
			c.run()
			dur := time.Since(start)
			cfg.observe(dur)
			if sec := dur.Seconds(); r == 0 || sec < secs[i] {
				secs[i] = sec
			}
		}
	}
	sums := make([]uint64, len(cells))
	for i, c := range cells {
		sums[i] = c.sum()
	}
	return secs, sums
}

// checksumInt32 hashes an int32 array with FNV-1a — order-sensitive, so two
// kernels match only if they agree edge-for-edge.
func checksumInt32(a []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range a {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
	"equitruss/internal/triangle"
)

// supportReps is how many times each (dataset, kernel) cell is timed; the
// minimum is recorded. Min-of-N is the standard defense against scheduler
// noise for short single-process benchmarks.
const supportReps = 3

// supportKernels is the sweep order. Merge first: the vsMerge column
// divides by it.
var supportKernels = []triangle.Kernel{triangle.KernelMerge, triangle.KernelOriented}

// runSupport times every explicit Support kernel on the four-network set.
// The Auto column marks the kernel triangle.ChooseKernel picks for the
// graph — computed, not timed again — so the selector predicate can hold
// the pick against the fastest kernel. All kernels must produce identical
// support arrays — a mismatch is a correctness bug, so the experiment
// panics rather than reporting a time for a wrong answer.
func runSupport(cfg config) {
	t := newTable("Network", "Kernel", "Seconds", "vsMerge", "Auto", "Checksum")
	for _, name := range fourNets {
		g := dataset(cfg, name)
		pick := triangle.ChooseKernel(g)
		cells := make([]cell, len(supportKernels))
		for i, k := range supportKernels {
			cells[i] = supportCell(g, k, cfg.maxThr)
		}
		secs, sums := timeCells(cfg, supportReps, cells)
		for i, k := range supportKernels {
			if sums[i] != sums[0] {
				panic(fmt.Sprintf("support kernel %s disagrees with merge on %s: checksum %#x != %#x",
					k, name, sums[i], sums[0]))
			}
			t.row(name, k.String(), secs[i], ratio(secs[0], secs[i]), k == pick, sums[i])
		}
	}
	emit(cfg, "support", "", t)
}

// rmat18Scale and rmat18EdgeFactor define the skewed stress graph from the
// acceptance criteria: 2^18 vertices, ~2M undirected edges, heavy-tailed
// degree distribution where the oriented kernel's O(m^1.5) bound beats
// merge's hub-quadratic intersections.
const (
	rmat18Scale      = 18
	rmat18EdgeFactor = 8
	rmat18Seed       = 42
)

// runRMAT18 builds the scale-18 RMAT graph and times the Support stage with
// the configured -support-kernel (auto resolves per the heuristic), then
// runs the truss decomposition so the artifact also witnesses the supports
// feed a correct downstream τ. Excluded from `-experiment all`: it is the
// committed-artifact producer, run explicitly once per kernel.
func runRMAT18(cfg config) {
	g := gen.RMAT(rmat18Scale, rmat18EdgeFactor, 0.57, 0.19, 0.19, rmat18Seed)
	fmt.Printf("rmat18: %d vertices, %d edges, kernel=%s, peel=%s\n",
		g.NumVertices(), g.NumEdges(), cfg.kernel, cfg.peel)
	secs, sums := timeCells(cfg, supportReps, []cell{supportCell(g, cfg.kernel, cfg.maxThr)})
	sec, sum := secs[0], sums[0]
	sup := testkit.Supports(g, cfg.kernel, cfg.maxThr)
	start := time.Now()
	tau, _ := testkit.Tau(g, sup, cfg.peel, cfg.maxThr)
	decomp := time.Since(start)
	cfg.observe(decomp)
	decompSec := decomp.Seconds()
	t := newTable("Graph", "Kernel", "Peel", "Support(s)", "Decompose(s)", "SupSum", "TauSum")
	t.row("rmat18", cfg.kernel.String(), cfg.peel.String(), sec, decompSec, sum, checksumInt32(tau))
	emit(cfg, "rmat18", "", t)
}

// cell is one timed workload of a sweep: run is what the clock covers, sum
// the checksum of what the last run produced.
type cell struct {
	run func()
	sum func() uint64
}

// supportCell is the Support stage of g under one kernel.
func supportCell(g *graph.Graph, k triangle.Kernel, threads int) cell {
	var sup []int32
	return cell{
		run: func() { sup = testkit.Supports(g, k, threads) },
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

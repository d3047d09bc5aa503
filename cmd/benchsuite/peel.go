package main

import (
	"fmt"
	"slices"

	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// peelReps is how many times each (dataset, peel kernel) cell is timed; the
// minimum is recorded, matching the Support sweep's min-of-reps discipline.
const peelReps = 3

// peelKernels is the sweep order. Levelsync first: the vsLevelsync column
// divides by it.
var peelKernels = []truss.PeelKernel{
	truss.PeelLevelSync, truss.PeelSerial, truss.PeelPKT,
}

// runPeel times every explicit peel kernel on the four-network set over the
// same support arrays. The Auto column marks the kernel
// truss.ChoosePeelKernel picks for the instance at -maxthreads — computed,
// not timed again. All kernels must produce identical trussness arrays — a
// mismatch is a correctness bug, so the experiment panics rather than
// reporting a time for a wrong answer.
func runPeel(cfg config) {
	t := newTable("Network", "Kernel", "Seconds", "vsLevelsync", "Auto", "Checksum")
	for _, name := range fourNets {
		g := dataset(cfg, name)
		sup := testkit.Supports(g, cfg.kernel, cfg.maxThr)
		pick := truss.ChoosePeelKernel(g.NumEdges(), slices.Max(sup), cfg.maxThr)
		cells := make([]cell, len(peelKernels))
		for i, k := range peelKernels {
			var tau []int32
			cells[i] = cell{
				run: func() { tau, _ = testkit.Tau(g, sup, k, cfg.maxThr) },
				sum: func() uint64 { return checksumInt32(tau) },
			}
		}
		secs, sums := timeCells(cfg, peelReps, cells)
		for i, k := range peelKernels {
			if sums[i] != sums[0] {
				panic(fmt.Sprintf("peel kernel %s disagrees with levelsync on %s: checksum %#x != %#x",
					k, name, sums[i], sums[0]))
			}
			t.row(name, k.String(), secs[i], ratio(secs[0], secs[i]), k == pick, sums[i])
		}
	}
	emit(cfg, "peel", "", t)
}

package main

import (
	"fmt"

	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// peelReps is how many times each (dataset, peel kernel) cell is timed; the
// minimum is recorded, matching the Support sweep's min-of-reps discipline.
const peelReps = 3

// peelKernels is the sweep order. Levelsync first: the check mode
// normalizes every kernel's time by the same run's levelsync time, so
// levelsync rows must exist before ratios are formed.
var peelKernels = []truss.PeelKernel{
	truss.PeelLevelSync, truss.PeelSerial, truss.PeelPKT,
}

// runPeel times every explicit peel kernel on the four-network set over the
// same support arrays and records (dataset, kernel, seconds, checksum) rows
// into the artifact. All kernels must produce identical trussness arrays —
// a mismatch is a correctness bug, so the experiment panics rather than
// reporting a time for a wrong answer.
func runPeel(cfg config) {
	t := newTable("Network", "Kernel", "Seconds", "vsLevelsync")
	for _, name := range fourNets {
		g := dataset(cfg, name)
		sup := testkit.Supports(g, cfg.kernel, cfg.maxThr)
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
			t.row(name, k.String(), secs[i], secs[0]/secs[i])
			if cfg.art != nil {
				cfg.art.PeelBench = append(cfg.art.PeelBench, peelRow{
					Dataset: name, Kernel: k.String(), Threads: cfg.maxThr,
					Seconds: secs[i], Checksum: sums[i],
				})
			}
		}
	}
	emit(cfg.sink, "peel", "", t)
}

// checkPeelRows gates the (dataset, peel kernel) cells, normalized by the
// levelsync kernel within each artifact — the same ratios-of-ratios
// discipline as the Support gate. A baseline row that should exist but does
// not is a loud failure, never a silent pass.
func checkPeelRows(base, art *benchArtifact) (int, error) {
	baseLS := levelsyncSeconds(base.PeelBench)
	curLS := levelsyncSeconds(art.PeelBench)
	checked := 0
	for _, row := range art.PeelBench {
		if row.Kernel == "levelsync" {
			continue
		}
		cm, okC := curLS[row.Dataset]
		if !okC {
			return checked, fmt.Errorf("peel %s/%s: current run has no levelsync row to normalize by (run the full peel sweep)",
				row.Dataset, row.Kernel)
		}
		bm, okB := baseLS[row.Dataset]
		if !okB {
			return checked, fmt.Errorf("peel %s/%s: baseline %s has no levelsync row for this dataset (regenerate the baseline)",
				row.Dataset, row.Kernel, base.GitRev)
		}
		if bm < checkNoiseFloorSec || cm < checkNoiseFloorSec {
			continue
		}
		baseSec, found := findPeelRow(base.PeelBench, row.Dataset, row.Kernel)
		if !found {
			return checked, fmt.Errorf("peel %s/%s: no baseline row in %s — the gate cannot pass by omission (regenerate the baseline)",
				row.Dataset, row.Kernel, base.GitRev)
		}
		curRatio := row.Seconds / cm
		baseRatio := baseSec / bm
		checked++
		if curRatio > baseRatio*checkMargin {
			return checked, fmt.Errorf("%s/%s: normalized peel time %.3f (was %.3f in baseline %s) — >%.0f%% regression",
				row.Dataset, row.Kernel, curRatio, baseRatio, base.GitRev, (checkMargin-1)*100)
		}
		fmt.Printf("# benchcheck peel %s/%-9s ratio %.3f vs baseline %.3f ok\n",
			row.Dataset, row.Kernel, curRatio, baseRatio)
	}
	return checked, nil
}

// findPeelRow looks up a (dataset, kernel) cell's seconds.
func findPeelRow(rows []peelRow, dataset, kernel string) (float64, bool) {
	for _, r := range rows {
		if r.Dataset == dataset && r.Kernel == kernel {
			return r.Seconds, true
		}
	}
	return 0, false
}

// levelsyncSeconds indexes the levelsync-kernel time per dataset.
func levelsyncSeconds(rows []peelRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if r.Kernel == "levelsync" {
			out[r.Dataset] = r.Seconds
		}
	}
	return out
}

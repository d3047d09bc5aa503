package main

import (
	"fmt"
	"math"
)

// The benchcheck predicates: the orderings the paper's evaluation claims,
// checked inside one run, so no file is read and machine speed cancels.
// Each required ratio's comment gives the ratio measured at scale 0.05 on
// a 2-vCPU box (GOMAXPROCS=2), so the slack it leaves is on record.
const (
	// floorSec: a cell whose deciding time is under this is too short to
	// time on a shared box and is not checked.
	floorSec = 0.020
	// fig5MinStep: Baseline/C-Optimal and C-Optimal/Afforest SpNode time at
	// one thread. Measured 2.2–2.8× and 1.8–2.7×.
	fig5MinStep = 1.3
	// fig4MinLead: SpNode's share of the Baseline pipeline over the next
	// largest kernel's. Measured 56–77 % against at most 26 %, ≥ 2.1×.
	fig4MinLead = 1.5
	// fig2MinLead: the EquiTruss share of the serial pipeline over the
	// TrussDecomp share — the paper's "at least as expensive". Measured
	// 46–67 % against 28–31 %, ≥ 1.5×.
	fig2MinLead = 1.0
	// fig7MinSpeedup: C-Optimal and Afforest SpNode time at one thread over
	// the time at the top of the sweep. Measured 1.58–2.44× at two threads;
	// with SpNode forced to one thread, 0.75–1.16×.
	fig7MinSpeedup = 1.3
	// selectorMaxLoss: the auto pick's time over the fastest explicit
	// kernel's. The pick was the fastest kernel in 5 of 5 sweeps; picking
	// levelsync where pkt wins costs 1.32–1.63× on orkut-sim.
	selectorMaxLoss = 1.15
	// queryMinHierarchy: indexed-BFS over hierarchy on the membership and
	// count workloads. Measured ~9 000× and ~12 000×.
	queryMinHierarchy = 100
	// queryMinDirect: direct over hierarchy on the communities workload.
	// Measured ~12×.
	queryMinDirect = 3
)

// A predicate is one paper claim, checked when the experiment whose tables
// it reads has run.
type predicate struct {
	name, experiment string
	cells            func(ts []*table) []verdict
}

var predicates = []predicate{
	{"Fig 5", "fig8", fig5Cells},
	{"Fig 4", "fig4", shareCells("SpNode%", fig4MinLead, "Support%", "Init%", "SpEdge%", "SmGraph%", "Remap%")},
	{"Fig 2", "fig2", shareCells("EquiTruss%", fig2MinLead, "TrussDecomp%")},
	{"Fig 7", "fig8", fig7Cells},
	{"Selectors/peel", "peel", selectorCells},
	{"Query", "query", queryCells},
}

// verdict is one checked cell: what was compared, and the measured value
// over the required one, so a margin below 1 fails.
type verdict struct {
	what   string
	margin float64
}

func atLeast(what string, got, need float64) verdict {
	return verdict{fmt.Sprintf("%s %.2f× (need ≥ %.2f×)", what, got, need), got / need}
}

func atMost(what string, got, limit float64) verdict {
	return verdict{fmt.Sprintf("%s %.2f× (need ≤ %.2f×)", what, got, limit), limit / got}
}

// check reports the predicate's worst cell as one line, and whether it
// passed. A predicate whose experiment ran but gave it no cell fails: the
// gate cannot pass by omission.
func (p predicate) check(tables []*table) (string, bool) {
	var ts []*table
	for _, t := range tables {
		if t.Experiment == p.experiment {
			ts = append(ts, t)
		}
	}
	vs := p.cells(ts)
	if len(vs) == 0 {
		return fmt.Sprintf("# benchcheck %s FAIL: %s ran but gave no cell above the %.0f ms floor to check",
			p.name, p.experiment, floorSec*1000), false
	}
	worst := vs[0]
	for _, v := range vs[1:] {
		if v.margin < worst.margin {
			worst = v
		}
	}
	status := "ok"
	if worst.margin < 1 {
		status = "FAIL"
	}
	return fmt.Sprintf("# benchcheck %s %s: margin %.2f over %d cells, worst %s",
		p.name, status, worst.margin, len(vs), worst.what), status == "ok"
}

// fig5Cells: at one thread, SpNode time is Baseline > C-Optimal > Afforest
// (paper Fig. 5, Table 4), read from the one-thread rows of the fig8 sweep
// — the two largest surrogates, whose times the fig5 experiment repeats.
// The floor holds the fastest, Afforest.
func fig5Cells(ts []*table) []verdict {
	var vs []verdict
	for _, t := range ts {
		base, copt, aff := spNode(t, "Baseline", 1), spNode(t, "C-Optimal", 1), spNode(t, "Afforest", 1)
		if aff >= floorSec {
			vs = append(vs,
				atLeast(t.Sub+" SpNode Baseline/C-Opt at T1", base/copt, fig5MinStep),
				atLeast(t.Sub+" SpNode C-Opt/Afforest at T1", copt/aff, fig5MinStep))
		}
	}
	return vs
}

// fig7Cells: C-Optimal and Afforest SpNode get faster with threads (paper
// Fig. 7), read from the fig8 sweep: the time at one thread over the time
// at the sweep's top. The floor holds the top-thread time. A sweep that
// stops at one thread (-maxthreads 1) compares T1 with itself and fails.
func fig7Cells(ts []*table) []verdict {
	var vs []verdict
	for _, t := range ts {
		top := 1.0
		for _, r := range t.Rows {
			top = math.Max(top, t.num(r, "Threads"))
		}
		for _, v := range []string{"C-Optimal", "Afforest"} {
			if tn := spNode(t, v, top); tn >= floorSec {
				vs = append(vs, atLeast(fmt.Sprintf("%s %s SpNode T1/T%.0f", t.Sub, v, top), spNode(t, v, 1)/tn, fig7MinSpeedup))
			}
		}
	}
	return vs
}

// spNode returns variant v's SpNode seconds at the given thread count in a
// fig8 table, or 0 when the sweep has no such row.
func spNode(t *table, v string, threads float64) float64 {
	for _, r := range t.Rows {
		if t.str(r, "Variant") == v && t.num(r, "Threads") == threads {
			return t.num(r, "SpNode(s)")
		}
	}
	return 0
}

// shareCells: in a percentage breakdown, the lead column's share is at
// least need × the largest of the rest — SpNode leads the Baseline
// pipeline (paper Fig. 4); EquiTruss costs at least TrussDecomp (Fig. 2).
// The floor holds the pipeline total.
func shareCells(lead string, need float64, rest ...string) func([]*table) []verdict {
	return func(ts []*table) []verdict {
		var vs []verdict
		for _, t := range ts {
			for _, r := range t.Rows {
				next := rest[0]
				for _, c := range rest[1:] {
					if t.num(r, c) > t.num(r, next) {
						next = c
					}
				}
				if t.num(r, "Total(s)") >= floorSec {
					vs = append(vs, atLeast(t.str(r, "Network")+" "+lead+"/"+next, t.num(r, lead)/t.num(r, next), need))
				}
			}
		}
		return vs
	}
}

// selectorCells: on every network of the peel kernel sweep (rows grouped
// by network), the kernel auto picks runs within selectorMaxLoss of the
// fastest explicit kernel. The floor holds the fastest kernel's time.
func selectorCells(ts []*table) []verdict {
	var vs []verdict
	for _, t := range ts {
		for i := 0; i < len(t.Rows); {
			name := t.str(t.Rows[i], "Network")
			var best, pick []interface{}
			for ; i < len(t.Rows) && t.str(t.Rows[i], "Network") == name; i++ {
				r := t.Rows[i]
				if best == nil || t.num(r, "Seconds") < t.num(best, "Seconds") {
					best = r
				}
				if r[t.col("Auto")] == true {
					pick = r
				}
			}
			if pick != nil && t.num(best, "Seconds") >= floorSec {
				vs = append(vs, atMost(fmt.Sprintf("%s auto=%s/fastest=%s", name, t.str(pick, "Kernel"), t.str(best, "Kernel")),
					t.num(pick, "Seconds")/t.num(best, "Seconds"), selectorMaxLoss))
			}
		}
	}
	return vs
}

// queryCells: the precomputed hierarchy answers membership and count
// queries orders of magnitude faster than the summary-graph BFS, and the
// from-scratch DirectCommunities oracle is several times slower than the
// hierarchy on sampled community queries. The floor holds the slow engine:
// the hierarchy answers in microseconds by design.
func queryCells(ts []*table) []verdict {
	var vs []verdict
	for _, t := range ts {
		sec := map[string]float64{}
		for _, r := range t.Rows {
			sec[t.str(r, "Workload")+"/"+t.str(r, "Engine")] = t.num(r, "Seconds")
		}
		for _, c := range []struct {
			workload, slow string
			need           float64
		}{
			{"membership", "indexed-bfs", queryMinHierarchy},
			{"count", "indexed-bfs", queryMinHierarchy},
			{"communities", "direct", queryMinDirect},
		} {
			if slow := sec[c.workload+"/"+c.slow]; slow >= floorSec {
				vs = append(vs, atLeast(c.workload+" "+c.slow+"/hierarchy", slow/sec[c.workload+"/hierarchy"], c.need))
			}
		}
	}
	return vs
}

package main

import (
	"fmt"
	"time"

	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// runTab3 prints the dataset inventory (paper Table 3) for the surrogates
// at the configured scale.
func runTab3(cfg config) {
	t := newTable("Network", "StandsIn", "#Vertices", "#Edges")
	for _, spec := range gen.Datasets {
		g := dataset(cfg, spec.Name)
		t.row(spec.Name, spec.StandsIn, g.NumVertices(), g.NumEdges())
	}
	emit(cfg, "tab3", "", t)
}

// runFig2 reproduces Figure 2: for the serial pipeline, the percentage of
// time in SupportComp vs TrussDecomp vs EquiTruss index construction.
// The paper's point: EquiTruss construction is as expensive as truss
// decomposition for large graphs — worth parallelizing.
func runFig2(cfg config) {
	nets := []string{"amazon-sim", "dblp-sim", "livejournal-sim", "orkut-sim"}
	t := newTable("Network", "SupportComp%", "TrussDecomp%", "EquiTruss%", "Total(s)")
	for _, name := range nets {
		g := dataset(cfg, name)
		start := time.Now()
		sup := testkit.Supports(g, cfg.kernel, 1)
		supportT := time.Since(start)
		start = time.Now()
		tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
		trussT := time.Since(start)
		_, tm := testkit.Summary(g, tau, core.VariantSerial, 1)
		eqT := tm.IndexTotal()
		total := supportT + trussT + eqT
		t.row(name, pct(supportT, total), pct(trussT, total), pct(eqT, total), secs(total))
	}
	emit(cfg, "fig2", "", t)
}

// runFig4 reproduces Figure 4: single-thread kernel percentage breakdown of
// the Baseline parallel implementation (Support, Init, SpNode, SpEdge,
// SmGraph, SpNodeRemap). SpNode must dominate (79–89% in the paper).
func runFig4(cfg config) {
	t := newTable("Network", "Support%", "Init%", "SpNode%", "SpEdge%", "SmGraph%", "Remap%", "Total(s)")
	for _, name := range fourNets {
		g := dataset(cfg, name)
		start := time.Now()
		sup := testkit.Supports(g, cfg.kernel, 1)
		supportT := time.Since(start)
		tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
		_, tm := testkit.Summary(g, tau, core.VariantBaseline, 1)
		total := supportT + tm.IndexTotal()
		t.row(name, pct(supportT, total), pct(tm.Init, total), pct(tm.SpNode, total),
			pct(tm.SpEdge, total), pct(tm.SmGraph, total), pct(tm.SpNodeRemap, total), secs(total))
	}
	emit(cfg, "fig4", "", t)
}

// runFig5 reproduces Figure 5: single-thread SpNode kernel speedup of
// C-Optimal and Afforest over Baseline (paper: ~2× and 2–4.1×).
func runFig5(cfg config) {
	t := newTable("Network", "SpNode Baseline(s)", "SpNode C-Opt(s)", "SpNode Aff.(s)", "C-Opt x", "Aff. x")
	for _, name := range fourNets {
		g := dataset(cfg, name)
		tau := trussness(cfg, name, g)
		times := map[core.Variant]time.Duration{}
		for _, v := range core.ParallelVariants {
			_, tm := testkit.Summary(g, tau, v, 1)
			times[v] = tm.SpNode
		}
		base := times[core.VariantBaseline]
		t.row(name, secs(base), secs(times[core.VariantCOptimal]), secs(times[core.VariantAfforest]),
			ratio(secs(base), secs(times[core.VariantCOptimal])),
			ratio(secs(base), secs(times[core.VariantAfforest])))
	}
	emit(cfg, "fig5", "", t)
}

// runFig6 reproduces Figure 6: execution time of the index-construction
// kernels vs thread count for the three larger networks and all three
// parallel variants.
func runFig6(cfg config) {
	nets := []string{"orkut-sim", "livejournal-sim", "youtube-sim"}
	for _, name := range nets {
		g := dataset(cfg, name)
		tau := trussness(cfg, name, g)
		fmt.Printf("-- %s --\n", name)
		t := newTable("Threads", "Baseline(s)", "C-Optimal(s)", "Afforest(s)")
		for _, thr := range threadSweep(cfg.maxThr) {
			var row []interface{}
			row = append(row, thr)
			for _, v := range core.ParallelVariants {
				_, tm := testkit.Summary(g, tau, v, thr)
				row = append(row, secs(tm.IndexTotal()))
			}
			t.row(row...)
		}
		emit(cfg, "fig6", name, t)
	}
}

// runFig7 reproduces Figure 7: SpNode kernel scaling on the largest
// (Friendster stand-in) graph for C-Optimal and Afforest.
func runFig7(cfg config) {
	g := dataset(cfg, "friendster-sim")
	fmt.Printf("friendster-sim: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	tau := trussness(cfg, "friendster-sim", g)
	t := newTable("Threads", "SpNode C-Opt(s)", "SpNode Aff.(s)")
	for _, thr := range threadSweep(cfg.maxThr) {
		_, tmC := testkit.Summary(g, tau, core.VariantCOptimal, thr)
		_, tmA := testkit.Summary(g, tau, core.VariantAfforest, thr)
		t.row(thr, secs(tmC.SpNode), secs(tmA.SpNode))
	}
	emit(cfg, "fig7", "", t)
}

// runFig8 reproduces Figure 8: the absolute times of the three major
// kernels (SpNode, SpEdge, SmGraph) for each variant at increasing thread
// counts (paper: 1, 8, 32, 128; here: the host's power-of-two sweep).
func runFig8(cfg config) {
	nets := []string{"orkut-sim", "livejournal-sim"}
	for _, name := range nets {
		g := dataset(cfg, name)
		tau := trussness(cfg, name, g)
		fmt.Printf("-- %s --\n", name)
		t := newTable("Threads", "Variant", "SpNode(s)", "SpEdge(s)", "SmGraph(s)")
		for _, thr := range threadSweep(cfg.maxThr) {
			for _, v := range core.ParallelVariants {
				_, tm := testkit.Summary(g, tau, v, thr)
				t.row(thr, v.String(), secs(tm.SpNode), secs(tm.SpEdge), secs(tm.SmGraph))
			}
		}
		emit(cfg, "fig8", name, t)
	}
}

// runFig9 reproduces Figure 9: parallel efficiency ε = T_seq / (p · T_p)
// of the index construction for each variant.
func runFig9(cfg config) {
	nets := []string{"orkut-sim", "livejournal-sim", "youtube-sim"}
	for _, name := range nets {
		g := dataset(cfg, name)
		tau := trussness(cfg, name, g)
		fmt.Printf("-- %s --\n", name)
		seq := map[core.Variant]time.Duration{}
		for _, v := range core.ParallelVariants {
			_, tm := testkit.Summary(g, tau, v, 1)
			seq[v] = tm.IndexTotal()
		}
		t := newTable("Threads", "Baseline ε%", "C-Optimal ε%", "Afforest ε%")
		for _, thr := range threadSweep(cfg.maxThr) {
			var row []interface{}
			row = append(row, thr)
			for _, v := range core.ParallelVariants {
				_, tm := testkit.Summary(g, tau, v, thr)
				row = append(row, 100*ratio(secs(seq[v]), float64(thr)*secs(tm.IndexTotal())))
			}
			t.row(row...)
		}
		emit(cfg, "fig9", name, t)
	}
}

// runTab4 reproduces Table 4: single-thread times of the combined index-
// construction phases for the three parallel implementations and the
// Original serial Algorithm 1 (the paper's Akbas et al. comparator role).
func runTab4(cfg config) {
	nets := []string{"amazon-sim", "dblp-sim", "livejournal-sim", "orkut-sim"}
	t := newTable("Network", "Baseline(s)", "C-Opt(s)", "Afforest(s)", "Original(s)")
	for _, name := range nets {
		g := dataset(cfg, name)
		tau := trussness(cfg, name, g)
		var row []interface{}
		row = append(row, name)
		for _, v := range []core.Variant{core.VariantBaseline, core.VariantCOptimal, core.VariantAfforest, core.VariantSerial} {
			_, tm := testkit.Summary(g, tau, v, 1)
			row = append(row, secs(tm.IndexTotal()))
		}
		t.row(row...)
	}
	emit(cfg, "tab4", "", t)
}

// runTab5 reproduces Table 5: supernode/superedge counts plus 1-thread vs
// max-thread times and the resulting speedups for every variant.
func runTab5(cfg config) {
	nets := []string{"amazon-sim", "dblp-sim", "youtube-sim", "livejournal-sim", "orkut-sim"}
	t := newTable("Network", "SpNodes", "SpEdges",
		"Base 1t(s)", "Base Nt(s)", "Base x",
		"C-Opt 1t(s)", "C-Opt Nt(s)", "C-Opt x",
		"Aff 1t(s)", "Aff Nt(s)", "Aff x")
	for _, name := range nets {
		g := dataset(cfg, name)
		tau := trussness(cfg, name, g)
		var sg *core.SummaryGraph
		var row []interface{}
		row = append(row, name)
		var counts []interface{}
		for _, v := range core.ParallelVariants {
			sg1, tm1 := testkit.Summary(g, tau, v, 1)
			_, tmN := testkit.Summary(g, tau, v, cfg.maxThr)
			if sg == nil {
				sg = sg1
				counts = []interface{}{sg.NumSupernodes(), sg.NumSuperedges()}
			}
			row = append(row, secs(tm1.IndexTotal()), secs(tmN.IndexTotal()),
				ratio(secs(tm1.IndexTotal()), secs(tmN.IndexTotal())))
		}
		full := append(append([]interface{}{name}, counts...), row[1:]...)
		t.row(full...)
	}
	emit(cfg, "tab5", "", t)
}

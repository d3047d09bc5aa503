package main

import (
	"strings"
	"testing"
)

// tb builds a hand-made table as emit would record it.
func tb(experiment, sub string, cols []string, rows ...[]interface{}) *table {
	t := &table{Experiment: experiment, Sub: sub, Columns: cols}
	for _, r := range rows {
		t.row(r...)
	}
	return t
}

func TestPredicates(t *testing.T) {
	fig4 := func(rows ...[]interface{}) []*table {
		return []*table{tb("fig4", "", []string{"Network", "Support%", "Init%", "SpNode%", "SpEdge%", "SmGraph%", "Remap%", "Total(s)"}, rows...)}
	}
	fig2 := func(rows ...[]interface{}) []*table {
		return []*table{tb("fig2", "", []string{"Network", "SupportComp%", "TrussDecomp%", "EquiTruss%", "Total(s)"}, rows...)}
	}
	fig8 := func(sub string, rows ...[]interface{}) *table {
		return tb("fig8", sub, []string{"Threads", "Variant", "SpNode(s)"}, rows...)
	}
	peel := func(rows ...[]interface{}) []*table {
		return []*table{tb("peel", "", []string{"Network", "Kernel", "Seconds", "Auto"}, rows...)}
	}
	query := func(direct float64) []*table {
		return []*table{tb("query", "", []string{"Workload", "Engine", "Seconds"},
			[]interface{}{"membership", "indexed-bfs", 6.0}, []interface{}{"membership", "hierarchy", 0.0007},
			[]interface{}{"count", "indexed-bfs", 0.8}, []interface{}{"count", "hierarchy", 0.00005},
			[]interface{}{"communities", "indexed-bfs", 0.04}, []interface{}{"communities", "hierarchy", 0.03},
			[]interface{}{"communities", "direct", direct})}
	}
	cases := []struct {
		name, pred string
		tables     []*table
		ok         bool
		want       string
	}{
		{"fig5 passes", "Fig 5", []*table{fig8("orkut-sim",
			[]interface{}{1, "Baseline", 2.4}, []interface{}{1, "C-Optimal", 1.0}, []interface{}{1, "Afforest", 0.5},
			[]interface{}{2, "Baseline", 2.0}, []interface{}{2, "C-Optimal", 0.6}, []interface{}{2, "Afforest", 0.5})}, true,
			"Fig 5 ok: margin 1.54 over 2 cells, worst orkut-sim SpNode C-Opt/Afforest at T1 2.00×"},
		{"fig5 fails", "Fig 5", []*table{
			fig8("orkut-sim", []interface{}{1, "Baseline", 2.4}, []interface{}{1, "C-Optimal", 1.0}, []interface{}{1, "Afforest", 0.5}),
			fig8("livejournal-sim", []interface{}{1, "Baseline", 1.0}, []interface{}{1, "C-Optimal", 0.9}, []interface{}{1, "Afforest", 0.4})}, false,
			"Fig 5 FAIL: margin 0.85 over 4 cells, worst livejournal-sim SpNode Baseline/C-Opt at T1 1.11× (need ≥ 1.30×)"},
		{"fig5 under floor", "Fig 5", []*table{fig8("orkut-sim",
			[]interface{}{1, "Baseline", 0.05}, []interface{}{1, "C-Optimal", 0.02}, []interface{}{1, "Afforest", 0.01},
			[]interface{}{2, "Baseline", 2.0}, []interface{}{2, "C-Optimal", 0.6}, []interface{}{2, "Afforest", 0.5})}, false,
			"Fig 5 FAIL: fig8 ran but gave no cell above the 20 ms floor"},

		{"fig4 passes", "Fig 4", fig4([]interface{}{"orkut-sim", 2.0, 0.3, 67.0, 20.0, 10.0, 0.1, 3.0}), true,
			"Fig 4 ok: margin 2.23 over 1 cells"},
		{"fig4 fails", "Fig 4", fig4([]interface{}{"dblp-sim", 10.0, 1.0, 30.0, 35.0, 20.0, 4.0, 0.5}), false,
			"Fig 4 FAIL: margin 0.57 over 1 cells, worst dblp-sim SpNode%/SpEdge% 0.86× (need ≥ 1.50×)"},
		{"fig4 under floor", "Fig 4", fig4([]interface{}{"dblp-sim", 8.0, 3.0, 74.0, 11.0, 2.0, 2.0, 0.01}), false,
			"Fig 4 FAIL: fig4 ran but gave no cell"},

		{"fig2 passes", "Fig 2", fig2([]interface{}{"orkut-sim", 7.0, 30.0, 63.0, 1.2}), true,
			"Fig 2 ok: margin 2.10 over 1 cells"},
		{"fig2 fails", "Fig 2", fig2([]interface{}{"amazon-sim", 25.0, 40.0, 35.0, 0.1}), false,
			"Fig 2 FAIL: margin 0.88 over 1 cells, worst amazon-sim EquiTruss%/TrussDecomp% 0.88× (need ≥ 1.00×)"},
		{"fig2 under floor", "Fig 2", fig2([]interface{}{"amazon-sim", 21.0, 30.0, 49.0, 0.005}), false,
			"Fig 2 FAIL: fig2 ran but gave no cell"},

		{"fig7 passes", "Fig 7", []*table{fig8("orkut-sim",
			[]interface{}{1, "Baseline", 2.5}, []interface{}{1, "C-Optimal", 1.0}, []interface{}{1, "Afforest", 0.5},
			[]interface{}{2, "Baseline", 2.5}, []interface{}{2, "C-Optimal", 0.6}, []interface{}{2, "Afforest", 0.25})}, true,
			"Fig 7 ok: margin 1.28 over 2 cells, worst orkut-sim C-Optimal SpNode T1/T2 1.67×"},
		// C-Optimal does not scale.
		{"fig7 fails", "Fig 7", []*table{fig8("orkut-sim",
			[]interface{}{1, "C-Optimal", 1.0}, []interface{}{1, "Afforest", 0.5},
			[]interface{}{2, "C-Optimal", 0.9}, []interface{}{2, "Afforest", 0.25})}, false,
			"Fig 7 FAIL: margin 0.85 over 2 cells, worst orkut-sim C-Optimal SpNode T1/T2 1.11× (need ≥ 1.30×)"},
		{"fig7 under floor", "Fig 7", []*table{fig8("orkut-sim",
			[]interface{}{1, "C-Optimal", 0.03}, []interface{}{1, "Afforest", 0.02},
			[]interface{}{2, "C-Optimal", 0.015}, []interface{}{2, "Afforest", 0.01})}, false,
			"Fig 7 FAIL: fig8 ran but gave no cell"},
		{"fig7 at maxthreads 1", "Fig 7", []*table{fig8("orkut-sim", []interface{}{1, "C-Optimal", 1.0}, []interface{}{1, "Afforest", 0.5})}, false,
			"Fig 7 FAIL: margin 0.77 over 2 cells, worst orkut-sim C-Optimal SpNode T1/T1 1.00× (need ≥ 1.30×)"},

		{"peel selector passes", "Selectors/peel", peel(
			[]interface{}{"orkut-sim", "levelsync", 0.44, false}, []interface{}{"orkut-sim", "serial", 0.56, false},
			[]interface{}{"orkut-sim", "pkt", 0.26, true}), true,
			"Selectors/peel ok"},
		{"peel selector fails", "Selectors/peel", peel(
			[]interface{}{"orkut-sim", "levelsync", 0.44, true}, []interface{}{"orkut-sim", "serial", 0.56, false},
			[]interface{}{"orkut-sim", "pkt", 0.26, false}), false,
			"Selectors/peel FAIL: margin 0.68 over 1 cells, worst orkut-sim auto=levelsync/fastest=pkt 1.69× (need ≤ 1.15×)"},
		{"peel selector under floor", "Selectors/peel", peel(
			[]interface{}{"dblp-sim", "serial", 0.002, true}, []interface{}{"dblp-sim", "pkt", 0.001, false}), false,
			"Selectors/peel FAIL: peel ran but gave no cell"},

		{"query passes", "Query", query(0.4), true, "Query ok: margin 4.44 over 3 cells, worst communities direct/hierarchy 13.33×"},
		{"query fails", "Query", query(0.05), false,
			"Query FAIL: margin 0.56 over 3 cells, worst communities direct/hierarchy 1.67× (need ≥ 3.00×)"},
		{"query under floor", "Query", []*table{tb("query", "", []string{"Workload", "Engine", "Seconds"},
			[]interface{}{"membership", "indexed-bfs", 0.01}, []interface{}{"membership", "hierarchy", 0.0001})}, false,
			"Query FAIL: query ran but gave no cell"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var p *predicate
			for i := range predicates {
				if predicates[i].name == c.pred {
					p = &predicates[i]
				}
			}
			if p == nil {
				t.Fatalf("no predicate %q", c.pred)
			}
			// A table from another experiment must not reach the predicate.
			other := tb("tab3", "", []string{"Network"}, []interface{}{"orkut-sim"})
			line, ok := p.check(append(c.tables, other))
			if ok != c.ok || !strings.Contains(line, c.want) {
				t.Fatalf("check = (%q, %v), want ok=%v and %q", line, ok, c.ok, c.want)
			}
		})
	}
}

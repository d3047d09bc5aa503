package core_test

import (
	"strings"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
)

func TestComputeStatsFigure3(t *testing.T) {
	g := gen.PaperFigure3()
	tau := buildTau(t, g)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, 2)
	st := sg.ComputeStats()
	if st.Supernodes != 5 || st.Superedges != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if st.IndexedEdges != 27 || st.Tau2Edges != 0 {
		t.Fatalf("edge accounting: %+v", st)
	}
	if st.KMax != 5 {
		t.Fatalf("kmax = %d", st.KMax)
	}
	if st.KHistogram[3] != 2 || st.KHistogram[4] != 2 || st.KHistogram[5] != 1 {
		t.Fatalf("k histogram = %v", st.KHistogram)
	}
	if st.LargestSupernode != 10 {
		t.Fatalf("largest = %d", st.LargestSupernode)
	}
	if st.MeanSupernodeSize != 27.0/5.0 {
		t.Fatalf("mean = %f", st.MeanSupernodeSize)
	}
	s := st.String()
	for _, want := range []string{"supernodes=5", "kmax=5", "3:2", "5:1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestComputeStatsWithTau2Edges(t *testing.T) {
	g := gen.BridgedCliques(5) // bridge edge has τ=2
	tau := buildTau(t, g)
	sg, _ := testkit.Summary(g, tau, core.VariantAfforest, 2)
	st := sg.ComputeStats()
	if st.Tau2Edges != 1 {
		t.Fatalf("tau2 edges = %d, want 1 (the bridge)", st.Tau2Edges)
	}
	if st.Supernodes != 2 || st.LargestSupernode != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g := gen.Path(5)
	tau := buildTau(t, g)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, 1)
	st := sg.ComputeStats()
	if st.Supernodes != 0 || st.MeanSupernodeSize != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAfforestGiantSupernode: a graph whose index is one giant supernode
// (a triangle strip) plus a few small cliques. Nearly every union of the
// stream pass lands in the strip's component, so the concurrent forest
// sees its deepest trees and most contention there; at one and four
// threads the result must still match Serial exactly.
func TestAfforestGiantSupernode(t *testing.T) {
	strip := gen.TriangleStrip(5000) // ~10k τ=3 edges, one supernode
	// Append small K5s as separate components.
	base := strip.NumVertices()
	all := append([]graph.Edge(nil), strip.Edges()...)
	for c := int32(0); c < 8; c++ {
		off := base + c*5
		for u := int32(0); u < 5; u++ {
			for v := u + 1; v < 5; v++ {
				all = append(all, graph.Edge{U: off + u, V: off + v})
			}
		}
	}
	g, err := graph.FromEdgeList(all, 0)
	if err != nil {
		t.Fatal(err)
	}
	tau := buildTau(t, g)
	want, _ := testkit.Summary(g, tau, core.VariantSerial, 1)
	for _, threads := range []int{1, 4} {
		got, _ := testkit.Summary(g, tau, core.VariantAfforest, threads)
		if err := got.Validate(g); err != nil {
			t.Fatal(err)
		}
		if got.Canonical(g) != want.Canonical(g) {
			t.Fatalf("afforest at %d threads differs from serial", threads)
		}
		if st := got.ComputeStats(); st.Supernodes != 9 { // strip + 8 cliques
			t.Fatalf("supernodes at %d threads = %d, want 9", threads, st.Supernodes)
		}
	}
}

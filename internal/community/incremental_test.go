package community

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/dynamic"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// rebuildFromScratch is the oracle: materialize the dynamic graph, re-peel,
// re-summarize, and wrap in a fresh index.
func rebuildFromScratch(t *testing.T, dg *dynamic.Graph) *Index {
	t.Helper()
	g, tau, err := dg.ToStatic()
	if err != nil {
		t.Fatal(err)
	}
	sg, _ := testkit.Summary(g, tau, core.VariantSerial, 1)
	return NewIndex(g, sg)
}

func indexFromGraph(t *testing.T, g *graph.Graph) (*Index, []int32) {
	t.Helper()
	sup := testkit.Supports(g, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	sg, _ := testkit.Summary(g, tau, core.VariantSerial, 1)
	return NewIndex(g, sg), tau
}

// runChurnDifferential drives random insert/delete batches against a tracked
// dynamic graph and, after every batch, checks that the incrementally
// repaired index is bit-identical (all three checksum layers) to a
// from-scratch rebuild of the same state.
func runChurnDifferential(t *testing.T, g0 *graph.Graph, seed int64, batches, opsPerBatch int) {
	t.Helper()
	idx0, tau0 := indexFromGraph(t, g0)
	dg := dynamic.FromStatic(g0, tau0)
	mt := NewMaintainer(idx0)

	// Known edges (for deletions that actually hit), as packed keys.
	edges := make([]uint64, 0, g0.NumEdges())
	for _, e := range g0.Edges() {
		edges = append(edges, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
	}
	maxV := g0.NumVertices() + 4 // let churn grow the vertex space a little

	rng := rand.New(rand.NewSource(seed))
	for batch := 0; batch < batches; batch++ {
		for op := 0; op < opsPerBatch; op++ {
			if len(edges) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(edges))
				u, v := int32(edges[i]>>32), int32(uint32(edges[i]))
				if dg.DeleteEdge(u, v) {
					edges[i] = edges[len(edges)-1]
					edges = edges[:len(edges)-1]
				}
				continue
			}
			u, v := int32(rng.Intn(int(maxV))), int32(rng.Intn(int(maxV)))
			if u == v || dg.HasEdge(u, v) {
				continue
			}
			if _, err := dg.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if u > v {
				u, v = v, u
			}
			edges = append(edges, uint64(uint32(u))<<32|uint64(uint32(v)))
		}
		d := EdgeDelta(dg.Delta())
		got, st, err := mt.Apply(d, 0)
		if err != nil {
			t.Fatalf("batch %d: incremental apply: %v", batch, err)
		}
		dg.ResetDelta()
		if err := got.SG.Validate(got.G); err != nil {
			t.Fatalf("batch %d: repaired summary graph invalid: %v", batch, err)
		}
		ref := rebuildFromScratch(t, dg)
		if g, r := got.Checksums(), ref.Checksums(); g != r {
			t.Fatalf("batch %d: incremental checksums %+v != from-scratch %+v (stats %+v)",
				batch, g, r, st)
		}
	}
}

func TestIncrementalChurnFixtures(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		seed int64
	}{
		{"paper-figure3", gen.PaperFigure3(), 1},
		{"bridged-cliques", gen.BridgedCliques(6), 2},
		{"clique-pair", gen.SharedEdgeCliquePair(6, 5), 3},
		{"triangle-strip", gen.TriangleStrip(24), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runChurnDifferential(t, tc.g, tc.seed, 12, 6)
		})
	}
}

func TestIncrementalChurnSurrogates(t *testing.T) {
	// Tiny slices of the paper's Table 3 surrogates: one planted-partition
	// and one R-MAT, plus a direct R-MAT instance at a different skew.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		seed int64
	}{
		{"amazon-sim", gen.Datasets[0].Generate(0.01), 10},
		{"youtube-sim", gen.Datasets[2].Generate(0.02), 11},
		{"rmat", gen.RMAT(8, 8, 0.57, 0.19, 0.19, 42), 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("churn differential on surrogates skipped in -short")
			}
			runChurnDifferential(t, tc.g, tc.seed, 10, 8)
		})
	}
}

// TestIncrementalFromEmpty grows a graph from nothing through the
// incremental path — exercising the empty-hierarchy and first-supernode
// transitions — then shrinks it back down.
func TestIncrementalFromEmpty(t *testing.T) {
	empty, err := graph.FromEdgeList(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	runChurnDifferential(t, empty, 7, 16, 5)
}

// TestIncrementalRegionBudget: a delta whose repair region exceeds the
// budget must return ErrDeltaTooLarge and leave the maintainer untouched.
func TestIncrementalRegionBudget(t *testing.T) {
	g := gen.Clique(8)
	idx, tau := indexFromGraph(t, g)
	dg := dynamic.FromStatic(g, tau)
	mt := NewMaintainer(idx)

	if !dg.DeleteEdge(0, 1) {
		t.Fatal("delete failed")
	}
	d := EdgeDelta(dg.Delta())
	if _, _, err := mt.Apply(d, 1e-9); !errors.Is(err, ErrDeltaTooLarge) {
		t.Fatalf("want ErrDeltaTooLarge, got %v", err)
	}
	if mt.idx != idx {
		t.Fatal("maintainer advanced despite the budget error")
	}
	// The same delta applies fine without a budget, and the maintainer
	// advances.
	got, _, err := mt.Apply(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mt.idx != got {
		t.Fatal("maintainer did not advance after a successful apply")
	}
	ref := rebuildFromScratch(t, dg)
	if g, r := got.Checksums(), ref.Checksums(); g != r {
		t.Fatalf("incremental checksums %+v != from-scratch %+v", g, r)
	}
}

// TestIncrementalEmptyDelta: applying a no-op delta returns the same index.
func TestIncrementalEmptyDelta(t *testing.T) {
	g := gen.TwoTriangles()
	idx, tau := indexFromGraph(t, g)
	dg := dynamic.FromStatic(g, tau)
	mt := NewMaintainer(idx)
	got, _, err := mt.Apply(EdgeDelta(dg.Delta()), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got != idx {
		t.Fatal("empty delta produced a new index")
	}
}

// TestBuildIsSpliceOfEverything: the from-scratch hierarchy build and the
// incremental splice are one routine, so a repair whose delta dirties every
// tree (every indexed edge reported as touched, graph unchanged) must keep
// no node and reproduce the from-scratch hierarchy — serial or parallel —
// checksum for checksum.
func TestBuildIsSpliceOfEverything(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"paper-figure3":   gen.PaperFigure3(),
		"bridged-cliques": gen.BridgedCliques(6),
		"clique-pair":     gen.SharedEdgeCliquePair(6, 5),
		"triangle-strip":  gen.TriangleStrip(24),
	}
	for _, ds := range gen.Datasets {
		graphs[ds.Name] = ds.Generate(0.01)
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			idx, tau := indexFromGraph(t, g)
			want := idx.Checksums() // lazy, context-free build
			for _, threads := range []int{1, 4} {
				fresh := NewIndex(idx.G, idx.SG)
				if _, err := fresh.PrepareHierarchy(context.Background(), threads, nil); err != nil {
					t.Fatal(err)
				}
				if got := fresh.Checksums(); got != want {
					t.Fatalf("threads=%d build checksums %+v != lazy build %+v", threads, got, want)
				}
			}

			d := EdgeDelta{Touched: make(map[uint64]struct{}), G: g, Tau: tau, OldToNew: make([]int32, g.NumEdges())}
			for eid, e := range g.Edges() {
				d.OldToNew[eid] = int32(eid)
				if tau[eid] >= core.MinK {
					d.Touched[uint64(uint32(e.U))<<32|uint64(uint32(e.V))] = struct{}{}
				}
			}
			spliced, st, err := NewMaintainer(idx).Apply(d, 0)
			if err != nil {
				t.Fatal(err)
			}
			if nodes := int(idx.Hierarchy().NumNodes()); st.KeptNodes != 0 || st.RebuiltNodes != nodes {
				t.Fatalf("splice kept %d and rebuilt %d nodes, want 0 and %d", st.KeptNodes, st.RebuiltNodes, nodes)
			}
			if got := spliced.Checksums(); got != want {
				t.Fatalf("splice-of-everything checksums %+v != from-scratch %+v", got, want)
			}
		})
	}
}

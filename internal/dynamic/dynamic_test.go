package dynamic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// oracleTau recomputes trussness from scratch for the dynamic graph's
// current edge set.
func oracleTau(t testing.TB, dg *Graph) map[uint64]int32 {
	t.Helper()
	g, _, err := dg.ToStatic()
	if err != nil {
		t.Fatal(err)
	}
	sup := testkit.Supports(g, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	out := make(map[uint64]int32)
	for eid, e := range g.Edges() {
		out[graph.PackPair(e.U, e.V)] = tau[eid]
	}
	return out
}

func assertExact(t testing.TB, dg *Graph, context string) {
	t.Helper()
	want := oracleTau(t, dg)
	got := dg.TauSnapshot()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges tracked, oracle has %d", context, len(got), len(want))
	}
	for key, w := range want {
		if got[key] != w {
			u, v := graph.UnpackPair(key)
			t.Fatalf("%s: τ(%d,%d) = %d, oracle %d", context, u, v, got[key], w)
		}
	}
}

func TestInsertBuildUpClique(t *testing.T) {
	// Growing K6 edge by edge: trussness must track exactly at each step.
	dg := New(6)
	for u := int32(0); u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			ok, err := dg.InsertEdge(u, v)
			if err != nil || !ok {
				t.Fatalf("insert (%d,%d): %v %v", u, v, ok, err)
			}
			assertExact(t, dg, "grow clique")
		}
	}
	if tau, _ := dg.Trussness(0, 1); tau != 6 {
		t.Fatalf("final clique τ = %d, want 6", tau)
	}
}

func TestDeleteTearDownClique(t *testing.T) {
	g := gen.Clique(6)
	sup := testkit.Supports(g, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	dg := FromStatic(g, tau)
	for _, e := range g.Edges() {
		if !dg.DeleteEdge(e.U, e.V) {
			t.Fatalf("delete (%d,%d) failed", e.U, e.V)
		}
		assertExact(t, dg, "tear down clique")
	}
	if dg.NumEdges() != 0 {
		t.Fatalf("edges left: %d", dg.NumEdges())
	}
}

func TestInsertDuplicateAndErrors(t *testing.T) {
	dg := New(3)
	if ok, err := dg.InsertEdge(0, 1); !ok || err != nil {
		t.Fatal("first insert failed")
	}
	if ok, err := dg.InsertEdge(1, 0); ok || err != nil {
		t.Fatal("duplicate insert not detected")
	}
	if _, err := dg.InsertEdge(2, 2); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := dg.InsertEdge(-1, 2); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if dg.DeleteEdge(0, 2) {
		t.Fatal("deleted a missing edge")
	}
	if dg.NumEdges() != 1 {
		t.Fatalf("edges = %d", dg.NumEdges())
	}
}

func TestVertexGrowth(t *testing.T) {
	dg := New(0)
	if ok, err := dg.InsertEdge(5, 9); !ok || err != nil {
		t.Fatal("insert beyond capacity failed")
	}
	if dg.NumVertices() != 10 {
		t.Fatalf("vertices = %d, want 10", dg.NumVertices())
	}
	if tau, ok := dg.Trussness(9, 5); !ok || tau != 2 {
		t.Fatalf("τ = %d, %v", tau, ok)
	}
}

// TestRandomChurnMatchesOracle is the main property test: apply a random
// interleaving of insertions and deletions to a random graph and require
// exact trussness after every single operation.
func TestRandomChurnMatchesOracle(t *testing.T) {
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := int32(14)
		dg := New(n)
		// Start from a random static graph.
		var edges []graph.Edge
		for u := int32(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rnd.Float64() < 0.25 {
					edges = append(edges, graph.Edge{U: u, V: v})
				}
			}
		}
		g, err := graph.FromEdgeList(edges, n)
		if err != nil {
			return false
		}
		sup := testkit.Supports(g, 1)
		tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
		dg = FromStatic(g, tau)
		for op := 0; op < 40; op++ {
			u := int32(rnd.Intn(int(n)))
			v := int32(rnd.Intn(int(n)))
			if u == v {
				continue
			}
			if dg.HasEdge(u, v) {
				dg.DeleteEdge(u, v)
			} else {
				if _, err := dg.InsertEdge(u, v); err != nil {
					return false
				}
			}
			want := oracleTau(t, dg)
			got := dg.TauSnapshot()
			if len(got) != len(want) {
				return false
			}
			for key, w := range want {
				if got[key] != w {
					uu, vv := graph.UnpackPair(key)
					t.Logf("seed %d op %d: τ(%d,%d)=%d oracle %d", seed, op, uu, vv, got[key], w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnOnStructuredGraphs drives insert/delete sequences on the shapes
// with interesting trussness structure.
func TestChurnOnStructuredGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"figure3":    gen.PaperFigure3(),
		"sharedEdge": gen.SharedEdgeCliquePair(6, 4),
		"strip":      gen.TriangleStrip(14),
		"bridged":    gen.BridgedCliques(4),
	}
	for name, g := range graphs {
		sup := testkit.Supports(g, 1)
		tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
		dg := FromStatic(g, tau)
		assertExact(t, dg, name+" import")
		rnd := rand.New(rand.NewSource(99))
		n := int(g.NumVertices())
		for op := 0; op < 25; op++ {
			u := int32(rnd.Intn(n))
			v := int32(rnd.Intn(n))
			if u == v {
				continue
			}
			if dg.HasEdge(u, v) {
				dg.DeleteEdge(u, v)
			} else if _, err := dg.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
			assertExact(t, dg, name)
		}
	}
}

// TestInsertTriangleClosesSupernode: the end-to-end dynamic story — insert
// the closing edge of a triangle and rebuild the index from ToStatic.
func TestInsertTriangleClosesSupernode(t *testing.T) {
	dg := New(3)
	dg.InsertEdge(0, 1)
	dg.InsertEdge(1, 2)
	for _, pairTau := range []struct{ u, v int32 }{{0, 1}, {1, 2}} {
		if tau, _ := dg.Trussness(pairTau.u, pairTau.v); tau != 2 {
			t.Fatalf("pre-close τ = %d", tau)
		}
	}
	dg.InsertEdge(0, 2)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}} {
		if tau, _ := dg.Trussness(e[0], e[1]); tau != 3 {
			t.Fatalf("post-close τ(%v) = %d, want 3", e, tau)
		}
	}
	g, tau, err := dg.ToStatic()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || tau[0] != 3 {
		t.Fatalf("static export: %v %v", g, tau)
	}
}

// TestDeletionCascade: removing one clique edge must drop the whole
// clique's trussness by one (cascading recheck), exactly.
func TestDeletionCascade(t *testing.T) {
	g := gen.Clique(7)
	sup := testkit.Supports(g, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	dg := FromStatic(g, tau)
	dg.DeleteEdge(0, 1)
	// K7 minus an edge: edges not touching {0,1} keep ... oracle decides.
	assertExact(t, dg, "K7 minus edge")
	if got, _ := dg.Trussness(2, 3); got != 6 {
		t.Fatalf("τ(2,3) = %d, want 6 (K7 minus one edge is a 6-truss)", got)
	}
}

// TestInsertionUpperBoundTightness: a case where the new edge's h-index
// bound overshoots and the lowering pass must pull it back down.
func TestInsertionUpperBoundTightness(t *testing.T) {
	// Star of triangles: edges (0,i),(0,i+1),(i,i+1) — inserting a chord
	// far away cannot raise anything; inserting (1,3) creates exactly one
	// new triangle through 0 and 2.
	dg := New(8)
	for i := int32(1); i < 7; i++ {
		dg.InsertEdge(0, i)
	}
	for i := int32(1); i < 6; i++ {
		dg.InsertEdge(i, i+1)
	}
	assertExact(t, dg, "fan")
	dg.InsertEdge(1, 3)
	assertExact(t, dg, "fan + chord")
}

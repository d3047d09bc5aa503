package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustGraph(t testing.TB, edges []Edge, n int32) *Graph {
	t.Helper()
	g, err := FromEdgeList(edges, n)
	if err != nil {
		t.Fatalf("FromEdgeList: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, nil, 0)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: %v", g)
	}
	g = mustGraph(t, nil, 5)
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatalf("edgeless graph: %v", g)
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
}

func TestCanonicalization(t *testing.T) {
	// Duplicates in both orientations plus self-loops collapse to one
	// simple triangle.
	in := []Edge{{1, 0}, {0, 1}, {0, 1}, {1, 2}, {2, 1}, {0, 2}, {2, 2}, {0, 0}}
	g := mustGraph(t, in, 0)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v, want V=3 E=3", g)
	}
	for _, e := range g.Edges() {
		if e.U >= e.V {
			t.Fatalf("non-canonical stored edge %v", e)
		}
	}
}

func TestNegativeVertexRejected(t *testing.T) {
	if _, err := FromEdgeList([]Edge{{-1, 2}}, 0); err == nil {
		t.Fatal("negative vertex accepted")
	}
}

func TestNumVerticesTooSmallRejected(t *testing.T) {
	if _, err := FromEdgeList([]Edge{{0, 9}}, 5); err == nil {
		t.Fatal("undersized numVertices accepted")
	}
}

func TestNeighborsSortedAndAligned(t *testing.T) {
	in := []Edge{{3, 1}, {3, 0}, {3, 2}, {0, 1}, {2, 0}}
	g := mustGraph(t, in, 0)
	for v := int32(0); v < g.NumVertices(); v++ {
		nbrs := g.Neighbors(v)
		eids := g.IncidentEIDs(v)
		if len(nbrs) != len(eids) {
			t.Fatalf("vertex %d: misaligned adjacency", v)
		}
		if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
			t.Fatalf("vertex %d neighbors unsorted: %v", v, nbrs)
		}
		for i, w := range nbrs {
			e := g.Edge(eids[i])
			if !(e.U == v && e.V == w || e.U == w && e.V == v) {
				t.Fatalf("slot eid mismatch: vertex %d nbr %d edge %v", v, w, e)
			}
		}
	}
}

func TestEdgeIDLookup(t *testing.T) {
	in := []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}}
	g := mustGraph(t, in, 0)
	for eid := int32(0); eid < int32(g.NumEdges()); eid++ {
		e := g.Edge(eid)
		if got := g.EdgeID(e.U, e.V); got != eid {
			t.Fatalf("EdgeID(%d,%d) = %d, want %d", e.U, e.V, got, eid)
		}
		if got := g.EdgeID(e.V, e.U); got != eid {
			t.Fatalf("EdgeID reversed (%d,%d) = %d, want %d", e.V, e.U, got, eid)
		}
	}
	if g.EdgeID(0, 3) != -1 || g.HasEdge(0, 3) {
		t.Fatal("phantom edge (0,3)")
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("missing edge (0,1)")
	}
}

func TestDegreeSumEquals2M(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var in []Edge
	for i := 0; i < 500; i++ {
		in = append(in, Edge{int32(rnd.Intn(100)), int32(rnd.Intn(100))})
	}
	g := mustGraph(t, in, 100)
	var sum int64
	for v := int32(0); v < g.NumVertices(); v++ {
		sum += int64(g.Degree(v))
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2m %d", sum, 2*g.NumEdges())
	}
}

func TestTriangleEnumerationTriangle(t *testing.T) {
	g := mustGraph(t, []Edge{{0, 1}, {1, 2}, {0, 2}}, 0)
	e01 := g.EdgeID(0, 1)
	var hits int
	g.ForEachTriangleOf(e01, func(w, e1, e2 int32) bool {
		hits++
		if w != 2 {
			t.Fatalf("apex = %d, want 2", w)
		}
		if e1 != g.EdgeID(0, 2) || e2 != g.EdgeID(1, 2) {
			t.Fatalf("partner eids (%d, %d)", e1, e2)
		}
		return true
	})
	if hits != 1 {
		t.Fatalf("triangle visited %d times", hits)
	}
}

func TestTriangleEnumerationEarlyStop(t *testing.T) {
	// K5: edge (0,1) has 3 apexes; stopping after the first must visit 1.
	var in []Edge
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			in = append(in, Edge{u, v})
		}
	}
	g := mustGraph(t, in, 0)
	var hits int
	g.ForEachTriangleOf(g.EdgeID(0, 1), func(w, e1, e2 int32) bool {
		hits++
		return false
	})
	if hits != 1 {
		t.Fatalf("early stop visited %d", hits)
	}
}

// TestTriangleEnumerationMatchesBrute cross-checks ForEachTriangleOf and
// CommonNeighborCount against an O(V^3) enumeration on random graphs.
func TestTriangleEnumerationMatchesBrute(t *testing.T) {
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := int32(14)
		var in []Edge
		for u := int32(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rnd.Float64() < 0.3 {
					in = append(in, Edge{u, v})
				}
			}
		}
		g, err := FromEdgeList(in, n)
		if err != nil {
			return false
		}
		adj := make(map[[2]int32]bool)
		for _, e := range g.Edges() {
			adj[[2]int32{e.U, e.V}] = true
		}
		has := func(u, v int32) bool {
			if u > v {
				u, v = v, u
			}
			return adj[[2]int32{u, v}]
		}
		for eid := int32(0); eid < int32(g.NumEdges()); eid++ {
			e := g.Edge(eid)
			var bruteApexes []int32
			for w := int32(0); w < n; w++ {
				if w != e.U && w != e.V && has(e.U, w) && has(e.V, w) {
					bruteApexes = append(bruteApexes, w)
				}
			}
			var gotApexes []int32
			g.ForEachTriangleOf(eid, func(w, e1, e2 int32) bool {
				gotApexes = append(gotApexes, w)
				// Partner edge IDs must resolve to the right endpoints.
				if g.EdgeID(e.U, w) != e1 || g.EdgeID(e.V, w) != e2 {
					gotApexes = append(gotApexes, -99)
				}
				return true
			})
			if len(gotApexes) != len(bruteApexes) {
				return false
			}
			for i := range gotApexes {
				if gotApexes[i] != bruteApexes[i] {
					return false
				}
			}
			if g.CommonNeighborCount(e.U, e.V) != int32(len(bruteApexes)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSerialParallelBuildIdentical(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	var in []Edge
	for i := 0; i < 5000; i++ {
		in = append(in, Edge{int32(rnd.Intn(300)), int32(rnd.Intn(300))})
	}
	gp := mustGraph(t, in, 300)
	gs, err := buildCSR(in, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gp.NumEdges() != gs.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", gp.NumEdges(), gs.NumEdges())
	}
	for eid := int32(0); eid < int32(gp.NumEdges()); eid++ {
		if gp.Edge(eid) != gs.Edge(eid) {
			t.Fatalf("edge %d differs: %v vs %v", eid, gp.Edge(eid), gs.Edge(eid))
		}
	}
	for v := int32(0); v < 300; v++ {
		a, b := gp.Neighbors(v), gs.Neighbors(v)
		ea, eb := gp.IncidentEIDs(v), gs.IncidentEIDs(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range a {
			if a[i] != b[i] || ea[i] != eb[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
}

func TestInducedByEdges(t *testing.T) {
	g := mustGraph(t, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}}, 0)
	sub, err := g.InducedByEdges(func(eid int32) bool {
		e := g.Edge(eid)
		return e.U != 3 && e.V != 3 // drop edges touching vertex 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumEdges() != 3 {
		t.Fatalf("induced edges = %d, want 3", sub.NumEdges())
	}
	if sub.NumVertices() != g.NumVertices() {
		t.Fatal("vertex IDs not preserved")
	}
	if sub.HasEdge(2, 3) || !sub.HasEdge(0, 1) {
		t.Fatal("wrong edges survived")
	}
}

func TestGraphString(t *testing.T) {
	g := mustGraph(t, []Edge{{0, 1}}, 0)
	if got := g.String(); got != "Graph{V=2, E=1}" {
		t.Fatalf("String = %q", got)
	}
}

func TestCanonicalEdge(t *testing.T) {
	if (Edge{5, 2}).Canonical() != (Edge{2, 5}) {
		t.Fatal("Canonical did not swap")
	}
	if (Edge{2, 5}).Canonical() != (Edge{2, 5}) {
		t.Fatal("Canonical swapped a sorted edge")
	}
}

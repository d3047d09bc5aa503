package community_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

func pipeline(t testing.TB, g *graph.Graph) ([]int32, *community.Index) {
	t.Helper()
	sup := testkit.Supports(g, 2)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, 2)
	if err := sg.Validate(g); err != nil {
		t.Fatalf("invalid index: %v", err)
	}
	return tau, community.NewIndex(g, sg)
}

func canonCommunities(cs []*community.Community) string {
	cs = community.CanonicalizeCommunities(cs)
	out := ""
	for _, c := range cs {
		out += fmt.Sprint(c.Edges) + "\n"
	}
	return out
}

// TestIndexedMatchesDirect is the correctness property the whole system
// exists for: for every vertex and every k, the indexed query returns
// exactly the communities the from-scratch BFS finds.
func TestIndexedMatchesDirect(t *testing.T) {
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := int32(24)
		var in []graph.Edge
		for u := int32(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rnd.Float64() < 0.3 {
					in = append(in, graph.Edge{U: u, V: v})
				}
			}
		}
		g, err := graph.FromEdgeList(in, n)
		if err != nil {
			return false
		}
		tau, idx := pipeline(t, g)
		kmax := truss.KMax(tau)
		for v := int32(0); v < n; v++ {
			for k := int32(3); k <= kmax+1; k++ {
				got := canonCommunities(idx.Communities(v, k))
				want := canonCommunities(community.DirectCommunities(g, tau, v, k))
				if got != want {
					t.Logf("seed %d v=%d k=%d:\nindexed:\n%s\ndirect:\n%s", seed, v, k, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure3Queries(t *testing.T) {
	g := gen.PaperFigure3()
	tau, idx := pipeline(t, g)
	_ = tau

	// Vertex 6 at k=5: exactly the 5-clique community.
	cs := idx.Communities(6, 5)
	if len(cs) != 1 {
		t.Fatalf("v=6 k=5: %d communities, want 1", len(cs))
	}
	verts := cs[0].Vertices()
	if fmt.Sprint(verts) != fmt.Sprint([]int32{6, 7, 8, 9, 10}) {
		t.Fatalf("v=6 k=5 vertices = %v", verts)
	}

	// Vertex 3 at k=4: the two 4-truss supernodes ν1 and ν3 are NOT
	// connected at level 4 (their only shared triangles pass through
	// trussness-3 edges), so vertex 3 lies in two distinct communities.
	cs = idx.Communities(3, 4)
	if len(cs) != 2 {
		t.Fatalf("v=3 k=4: %d communities, want 2", len(cs))
	}

	// Vertex 0 at k=3: one community spanning everything triangle-
	// connected through the 3-truss.
	cs = idx.Communities(0, 3)
	if len(cs) != 1 {
		t.Fatalf("v=0 k=3: %d communities, want 1", len(cs))
	}
	if got := len(cs[0].Vertices()); got != 11 {
		t.Fatalf("v=0 k=3 spans %d vertices, want 11", got)
	}

	// k above kmax: no communities.
	if cs := idx.Communities(6, 6); len(cs) != 0 {
		t.Fatalf("v=6 k=6: %d communities, want 0", len(cs))
	}
}

func TestOverlapSharedEdgeCliques(t *testing.T) {
	// K7 and K5 sharing an edge: at k=5 the shared-edge endpoints belong
	// to both communities... actually the shared edge has τ=7, and the K5
	// remainder forms its own supernode at k=5. Verify the overlapping
	// membership the intro motivates: shared vertices participate in both
	// communities at k=4.
	g := gen.SharedEdgeCliquePair(7, 5)
	tau, idx := pipeline(t, g)

	shared := []int32{5, 6} // vertices in both cliques
	for _, v := range shared {
		cs := idx.Communities(v, 5)
		direct := community.DirectCommunities(g, tau, v, 5)
		if canonCommunities(cs) != canonCommunities(direct) {
			t.Fatalf("v=%d k=5 indexed != direct", v)
		}
		if len(cs) == 0 {
			t.Fatalf("v=%d k=5: no communities", v)
		}
	}
	// A vertex only in the K5 side must see exactly one k=5 community.
	cs := idx.Communities(9, 5)
	if len(cs) != 1 {
		t.Fatalf("v=9 k=5: %d communities, want 1", len(cs))
	}
}

func TestMaxKAndMembership(t *testing.T) {
	g := gen.PaperFigure3()
	_, idx := pipeline(t, g)
	cases := map[int32]int32{0: 4, 3: 4, 6: 5, 4: 4, 2: 4}
	for v, want := range cases {
		if got := idx.MaxK(v); got != want {
			t.Errorf("MaxK(%d) = %d, want %d", v, got, want)
		}
	}
	prof := idx.Membership(3)
	if prof[3] != 1 {
		t.Errorf("vertex 3 k=3 membership = %d, want 1", prof[3])
	}
	if prof[4] != 2 {
		t.Errorf("vertex 3 k=4 membership = %d, want 2 (overlap)", prof[4])
	}
}

func TestCommunitySubgraph(t *testing.T) {
	g := gen.PaperFigure3()
	_, idx := pipeline(t, g)
	cs := idx.Communities(6, 5)
	sub, err := cs[0].Subgraph()
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumEdges() != 10 {
		t.Fatalf("k=5 community subgraph edges = %d, want 10", sub.NumEdges())
	}
	// Within the subgraph every edge must have support >= k-2 = 3
	// (it is a k-truss by construction).
	for e := int32(0); e < int32(sub.NumEdges()); e++ {
		ed := sub.Edge(e)
		if sup := sub.CommonNeighborCount(ed.U, ed.V); sup < 3 {
			t.Fatalf("community edge %v support %d < 3", ed, sup)
		}
	}
}

func TestQueryVertexWithNoCommunities(t *testing.T) {
	g := gen.Path(6)
	_, idx := pipeline(t, g)
	if cs := idx.Communities(2, 3); len(cs) != 0 {
		t.Fatalf("path vertex has %d communities", len(cs))
	}
	if idx.MaxK(2) != 0 {
		t.Fatalf("MaxK on triangle-free = %d", idx.MaxK(2))
	}
	if len(idx.Membership(2)) != 0 {
		t.Fatal("membership profile non-empty")
	}
}

func TestKBelowMinimumClamped(t *testing.T) {
	g := gen.Clique(5)
	tau, idx := pipeline(t, g)
	a := canonCommunities(idx.Communities(0, 0))
	b := canonCommunities(idx.Communities(0, 3))
	if a != b {
		t.Fatal("k<3 not clamped to 3")
	}
	c := canonCommunities(community.DirectCommunities(g, tau, 0, -1))
	if c != b {
		t.Fatal("direct k<3 not clamped")
	}
}

func TestSupernodesOfConsistency(t *testing.T) {
	g := gen.PlantedPartition(6, 8, 0.7, 1.0, 41)
	_, idx := pipeline(t, g)
	sg := idx.SG
	for v := int32(0); v < g.NumVertices(); v++ {
		want := map[int32]bool{}
		for _, e := range g.IncidentEIDs(v) {
			if sn := sg.EdgeToSN[e]; sn != core.NoSupernode {
				want[sn] = true
			}
		}
		got := idx.SupernodesOf(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d supernodes, want %d", v, len(got), len(want))
		}
		for _, sn := range got {
			if !want[sn] {
				t.Fatalf("vertex %d: spurious supernode %d", v, sn)
			}
		}
	}
}

// hubOfTriangles builds a hub vertex 0 with spokes disjoint triangles
// attached through it: the hub's incident edges span spokes distinct
// supernodes (each triangle is its own 3-truss component).
func hubOfTriangles(t *testing.T, spokes int32) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for i := int32(0); i < spokes; i++ {
		a, b := 1+2*i, 2+2*i
		edges = append(edges,
			graph.Edge{U: 0, V: a}, graph.Edge{U: 0, V: b}, graph.Edge{U: a, V: b})
	}
	g, err := graph.FromEdgeList(edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDeferredHubDedup drives the set-fallback dedupe of the on-demand seed
// set (SupernodesOf): a hub whose incident edges span more distinct
// supernodes than the linear-scan threshold. The star alone has no
// triangles, so many disjoint triangles are attached through the hub.
func TestDeferredHubDedup(t *testing.T) {
	const spokes = 120 // > the linear-scan dedupe threshold
	g := hubOfTriangles(t, spokes)
	_, idx := pipeline(t, g)
	got := idx.SupernodesOf(0)
	if len(got) != spokes {
		t.Fatalf("hub supernode count %d, want %d", len(got), spokes)
	}
	seen := map[int32]bool{}
	for _, sn := range got {
		if seen[sn] {
			t.Fatalf("duplicate supernode %d from set-fallback dedupe", sn)
		}
		seen[sn] = true
	}
}

// TestIndexedMatchesDirectOnPlanted runs the equivalence on a community
// graph large enough to have nontrivial supergraph structure.
func TestIndexedMatchesDirectOnPlanted(t *testing.T) {
	g := gen.PlantedPartition(10, 10, 0.6, 2.0, 43)
	tau, idx := pipeline(t, g)
	kmax := truss.KMax(tau)
	rnd := rand.New(rand.NewSource(44))
	for trial := 0; trial < 50; trial++ {
		v := int32(rnd.Intn(int(g.NumVertices())))
		k := int32(3 + rnd.Intn(int(kmax)))
		got := canonCommunities(idx.Communities(v, k))
		want := canonCommunities(community.DirectCommunities(g, tau, v, k))
		if got != want {
			t.Fatalf("v=%d k=%d mismatch", v, k)
		}
	}
}

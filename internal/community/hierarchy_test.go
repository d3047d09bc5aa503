package community_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"equitruss/internal/community"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/truss"
)

// assertHierarchyMatchesBFS compares every hierarchy-backed read API
// against its BFS oracle form on one index, across all levels and a vertex
// sample, plus the DirectCommunities ground truth for the sampled vertices.
func assertHierarchyMatchesBFS(t *testing.T, name string, g *graph.Graph, tau []int32, idx *community.Index, sampleVerts int) {
	t.Helper()
	kmax := truss.KMax(tau)
	// Global views: AllCommunities and CommunityCount at every level (one
	// past kmax checks the empty case).
	for k := int32(3); k <= kmax+1; k++ {
		got := canonCommunities(idx.AllCommunities(k))
		want := canonCommunities(idx.AllCommunitiesBFS(k))
		if got != want {
			t.Fatalf("%s: AllCommunities(%d) diverges from BFS oracle:\n%s\nvs\n%s", name, k, got, want)
		}
	}
	gotCount := idx.CommunityCount()
	wantCount := idx.CommunityCountBFS()
	if fmt.Sprint(gotCount) != fmt.Sprint(wantCount) {
		t.Fatalf("%s: CommunityCount %v, oracle %v", name, gotCount, wantCount)
	}
	// Per-vertex views on an evenly spread vertex sample. DirectCommunities
	// rescans the whole graph per call, so only the first few sampled
	// vertices get that third oracle; the rest are checked hierarchy-vs-BFS.
	n := g.NumVertices()
	step := n / int32(sampleVerts)
	if step < 1 {
		step = 1
	}
	directBudget := 3
	for v := int32(0); v < n; v += step {
		checkDirect := directBudget > 0
		if checkDirect {
			directBudget--
		}
		for k := int32(3); k <= kmax+1; k++ {
			got := idx.Communities(v, k)
			if canon, want := canonCommunities(got), canonCommunities(idx.CommunitiesBFS(v, k)); canon != want {
				t.Fatalf("%s: Communities(%d, %d) diverges from BFS oracle", name, v, k)
			}
			if checkDirect {
				if direct := canonCommunities(community.DirectCommunities(g, tau, v, k)); direct != canonCommunities(got) {
					t.Fatalf("%s: Communities(%d, %d) diverges from DirectCommunities", name, v, k)
				}
			}
			// Ref counts must agree with the materialized community.
			for i, ref := range idx.CommunityRefs(v, k) {
				c := got[i]
				if int(ref.NumEdges()) != len(c.Edges) {
					t.Fatalf("%s: ref(%d,%d)[%d] edge count %d, want %d", name, v, k, i, ref.NumEdges(), len(c.Edges))
				}
				if int(ref.NumVertices()) != len(c.Vertices()) {
					t.Fatalf("%s: ref(%d,%d)[%d] vertex count %d, want %d", name, v, k, i, ref.NumVertices(), len(c.Vertices()))
				}
			}
		}
		if got, want := fmt.Sprint(idx.Membership(v)), fmt.Sprint(idx.MembershipBFS(v)); got != want {
			t.Fatalf("%s: Membership(%d) = %s, oracle %s", name, v, got, want)
		}
	}
	// Multi-vertex intersection against the oracle form for adjacent pairs.
	for v := int32(0); v+step < n; v += 3 * step {
		pair := []int32{v, v + step}
		for k := int32(3); k <= kmax; k++ {
			got := canonCommunities(idx.CommonCommunities(pair, k))
			want := canonCommunities(idx.CommonCommunitiesBFS(pair, k))
			if got != want {
				t.Fatalf("%s: CommonCommunities(%v, %d) diverges from BFS oracle", name, pair, k)
			}
		}
	}
}

// TestHierarchyMatchesOraclesOnSurrogates is the acceptance differential:
// every gen.Datasets surrogate (small instances) plus an RMAT stress graph,
// hierarchy vs BFS indexed path vs DirectCommunities.
func TestHierarchyMatchesOraclesOnSurrogates(t *testing.T) {
	for _, spec := range gen.Datasets {
		g := spec.Generate(0.005)
		if testing.Short() && g.NumEdges() > 20000 {
			continue
		}
		tau, idx := pipeline(t, g)
		assertHierarchyMatchesBFS(t, spec.Name, g, tau, idx, 12)
	}
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 7)
	tau, idx := pipeline(t, g)
	assertHierarchyMatchesBFS(t, "rmat10", g, tau, idx, 16)
}

// TestHierarchyStats sanity-checks the stats on a graph with a known
// two-level structure: Figure 3 has communities at k=3..5.
func TestHierarchyStats(t *testing.T) {
	g := gen.PaperFigure3()
	_, idx := pipeline(t, g)
	st := idx.Hierarchy().Stats()
	if st.Nodes <= 0 || st.Roots <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.KMax != 5 {
		t.Fatalf("kmax %d, want 5", st.KMax)
	}
	if st.MaxDepth < 1 || st.MaxDepth > st.Nodes {
		t.Fatalf("implausible depth %d with %d nodes", st.MaxDepth, st.Nodes)
	}
	counts := idx.CommunityCount()
	var levelEntries int64
	for _, n := range counts {
		levelEntries += int64(n)
	}
	if st.LevelEntries != levelEntries {
		t.Fatalf("level entries %d, want sum of per-level counts %d", st.LevelEntries, levelEntries)
	}
}

// TestHierarchyEmptyGraph: a triangle-free graph has no supernodes and no
// communities; every query path must answer empty without panicking.
func TestHierarchyEmptyGraph(t *testing.T) {
	g, err := graph.FromEdgeList([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, idx := pipeline(t, g)
	if h := idx.Hierarchy(); h.NumNodes() != 0 {
		t.Fatalf("%d hierarchy nodes on a triangle-free graph", h.NumNodes())
	}
	if cs := idx.Communities(1, 3); len(cs) != 0 {
		t.Fatalf("communities on a triangle-free graph: %d", len(cs))
	}
	if all := idx.AllCommunities(3); len(all) != 0 {
		t.Fatalf("AllCommunities non-empty: %d", len(all))
	}
	if m := idx.Membership(1); len(m) != 0 {
		t.Fatalf("Membership non-empty: %v", m)
	}
	if c := idx.CommunityCount(); len(c) != 0 {
		t.Fatalf("CommunityCount non-empty: %v", c)
	}
}

// TestHierarchyConcurrentFirstQueries hammers the lazy build and the read
// APIs from many goroutines at once — under -race this proves the
// hierarchy is built exactly once and read safely with no locking on the
// query path.
func TestHierarchyConcurrentFirstQueries(t *testing.T) {
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 21)
	tau, idx := pipeline(t, g)
	kmax := truss.KMax(tau)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := g.NumVertices()
			for v := int32(w); v < n; v += 64 {
				for k := int32(3); k <= kmax; k++ {
					if canonCommunities(idx.Communities(v, k)) != canonCommunities(idx.CommunitiesBFS(v, k)) {
						t.Errorf("worker %d: Communities(%d, %d) diverges", w, v, k)
						return
					}
				}
				idx.Membership(v)
			}
		}(w)
	}
	wg.Wait()
}

// TestCommunityRefsAllocsProportionalToAnswer pins the membership-answer
// path (CommunityRefs, no edge materialization) to O(answer) allocations:
// the refs slice plus sort bookkeeping, never an O(#supernodes) visited
// bitset like the BFS path allocates.
func TestCommunityRefsAllocsProportionalToAnswer(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 7)
	tau, idx := pipeline(t, g)
	idx.Hierarchy() // pay the one-time build outside the measurement
	kmax := truss.KMax(tau)
	measured := 0
	for v := int32(0); v < g.NumVertices() && measured < 10; v++ {
		for k := int32(3); k <= kmax; k++ {
			refs := idx.CommunityRefs(v, k)
			if len(refs) == 0 {
				continue
			}
			measured++
			answer := len(refs)
			allocs := testing.AllocsPerRun(100, func() {
				idx.CommunityRefs(v, k)
			})
			// Budget: the refs slice may grow log(answer) times, and
			// sort.Slice costs a couple of fixed allocations. Anything
			// scaling with the 10^3..10^4 supernodes of this graph blows
			// straight through it.
			budget := float64(6 + 2*answer)
			if allocs > budget {
				t.Fatalf("CommunityRefs(%d, %d): %.0f allocs for an answer of %d communities (budget %.0f) — query path is not O(answer)",
					v, k, allocs, answer, budget)
			}
		}
	}
	if measured == 0 {
		t.Fatal("no non-empty answers measured")
	}
}

// membershipSink makes the reference maps below escape, like the map
// Membership returns.
var membershipSink map[int32]int

// TestSeedLookupAllocatesNothing pins the seed walk itself — incident edges
// → EdgeToSN, read in place — to zero allocations, on a hub whose 120
// distinct incident supernodes would cost a materialized seed set a slice
// regrowth chain plus a dedupe map: MaxK allocates nothing at all, and
// Membership allocates exactly what its two answer-sized maps do (120
// visited forest nodes, one level).
func TestSeedLookupAllocatesNothing(t *testing.T) {
	const spokes = 120
	g := hubOfTriangles(t, spokes)
	_, idx := pipeline(t, g)
	idx.Hierarchy()
	if m := idx.Membership(0); len(m) != 1 || m[3] != spokes {
		t.Fatalf("hub membership %v, want {3: %d}", m, spokes)
	}
	if allocs := testing.AllocsPerRun(100, func() { idx.MaxK(0) }); allocs != 0 {
		t.Fatalf("MaxK: %.0f allocs, want 0", allocs)
	}
	mapsOnly := testing.AllocsPerRun(100, func() {
		out := make(map[int32]int)
		seen := make(map[int32]struct{})
		for node := int32(0); node < spokes; node++ {
			seen[node] = struct{}{}
			out[3]++
		}
		membershipSink = out // escapes, like Membership's returned map
	})
	if allocs := testing.AllocsPerRun(100, func() { idx.Membership(0) }); allocs > mapsOnly {
		t.Fatalf("Membership: %.0f allocs, its two maps alone cost %.0f — the seed lookup allocates", allocs, mapsOnly)
	}
}

// TestHierarchyBuildAllocationIsLinear pins the hierarchy build's memory to
// the size of its output: on a graph of many small communities (thousands
// of merge-forest nodes) the build may allocate a bounded number of bytes
// per supernode, forest node and vertex. A per-node reallocation of any
// node-indexed scratch array — the Θ(nodes²) stamp regrowth this replaced —
// overshoots the budget by orders of magnitude.
func TestHierarchyBuildAllocationIsLinear(t *testing.T) {
	g := gen.PlantedPartition(2000, 12, 0.5, 1.6, 19)
	_, idx := pipeline(t, g)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := idx.PrepareHierarchy(context.Background(), 1, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	units := int64(idx.SG.NumSupernodes()) + int64(h.NumNodes()) + int64(g.NumVertices())
	if h.NumNodes() < 2000 {
		t.Fatalf("fixture has only %d forest nodes; the quadratic term would not show", h.NumNodes())
	}
	if got := int64(after.TotalAlloc - before.TotalAlloc); got >= 64*units {
		t.Fatalf("hierarchy build allocated %d bytes for %d supernodes+nodes+vertices (%.1f B each, budget 64)",
			got, units, float64(got)/float64(units))
	}
}

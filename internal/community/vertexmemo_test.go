package community

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/dynamic"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// bruteVertices projects edges to vertices through a map set, independently
// of appendEdgeVertices.
func bruteVertices(g *graph.Graph, edges []int32) []int32 {
	seen := make(map[int32]bool, 2*len(edges))
	for _, e := range edges {
		ed := g.Edge(e)
		seen[ed.U], seen[ed.V] = true, true
	}
	out := make([]int32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func TestAppendSortedDistinctBothPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, universe int }{
		{0, 100}, {1, 1}, {3, 1000}, {10, 10000}, // sparse: sort + compact
		{200, 1000}, {5000, 300}, {64, 4096}, // dense: bitset scan
	} {
		ids := make([]int32, tc.n)
		for i := range ids {
			ids[i] = int32(rng.Intn(tc.universe))
		}
		set := make(map[int32]bool)
		for _, id := range ids {
			set[id] = true
		}
		want := []int32{-1}
		for id := int32(0); id < int32(tc.universe); id++ {
			if set[id] {
				want = append(want, id)
			}
		}
		got := appendSortedDistinct([]int32{-1}, slices.Clone(ids), tc.universe)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d universe=%d: got %v, want %v", tc.n, tc.universe, got, want)
		}
		inPlace := slices.Clone(ids)
		if got := appendSortedDistinct(inPlace[:0], inPlace, tc.universe); !slices.Equal(got, want[1:]) {
			t.Fatalf("n=%d universe=%d in place: got %v, want %v", tc.n, tc.universe, got, want[1:])
		}
	}
}

// TestAppendVerticesMatchesBruteForce checks every (v, k) answer's vertex
// list, from all four builders, against a brute-force map set, twice: the
// first read fills the memo, the second is served from it.
func TestAppendVerticesMatchesBruteForce(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"paper-figure3", gen.PaperFigure3()},
		{"clique-pair", gen.SharedEdgeCliquePair(6, 5)},
		{"rmat", gen.RMAT(8, 8, 0.57, 0.19, 0.19, 3)},
		{"planted", gen.PlantedPartition(12, 10, 0.6, 2, 4)},
	}
	variants := []core.Variant{core.VariantSerial, core.VariantBaseline, core.VariantCOptimal, core.VariantAfforest}
	for _, gc := range graphs {
		sup := testkit.Supports(gc.g, 2)
		tau, _ := testkit.Tau(gc.g, sup, truss.PeelSerial, 1)
		kmax := truss.KMax(tau)
		for _, variant := range variants {
			sg, _ := testkit.Summary(gc.g, tau, variant, 2)
			idx := NewIndex(gc.g, sg)
			for pass := 0; pass < 2; pass++ {
				for v := int32(0); v < gc.g.NumVertices(); v++ {
					for k := int32(core.MinK); k <= kmax+1; k++ {
						for _, r := range idx.CommunityRefs(v, k) {
							want := bruteVertices(gc.g, r.Edges())
							got := r.AppendVertices([]int32{-7})
							if got[0] != -7 || !slices.Equal(got[1:], want) {
								t.Fatalf("%s/%v pass %d: AppendVertices(%d, %d) = %v, want [-7 %v]", gc.name, variant, pass, v, k, got, want)
							}
							if int64(len(want)) != r.NumVertices() {
								t.Fatalf("%s/%v: %d vertices listed, NumVertices %d", gc.name, variant, len(want), r.NumVertices())
							}
							if cv := r.Community().Vertices(); !slices.Equal(cv, want) {
								t.Fatalf("%s/%v: Community().Vertices(%d, %d) = %v, want %v", gc.name, variant, v, k, cv, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestVerticesIsACopy: the memo never leaves the package mutable.
func TestVerticesIsACopy(t *testing.T) {
	idx, _ := indexFromGraph(t, gen.Clique(6))
	r := idx.CommunityRefs(0, 6)[0]
	vs := r.Vertices()
	want := slices.Clone(vs)
	vs[0] = 99
	if got := r.Vertices(); !slices.Equal(got, want) {
		t.Fatalf("writing a returned list changed the memo: %v, want %v", got, want)
	}
}

// TestVertexMemoConcurrentFill: sixteen goroutines reading one cold node at
// once all get the same list, and exactly one fill is published and counted.
func TestVertexMemoConcurrentFill(t *testing.T) {
	idx, _ := indexFromGraph(t, gen.RMAT(10, 8, 0.57, 0.19, 0.19, 7))
	r := idx.AllCommunityRefs(core.MinK)[0]
	want := bruteVertices(idx.G, r.Edges())
	fills := cMemoFills.Value()
	const readers = 16
	got := make([][]int32, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = r.Vertices()
		}()
	}
	close(start)
	wg.Wait()
	for i, vs := range got {
		if !slices.Equal(vs, want) {
			t.Fatalf("reader %d: %d vertices, want %d", i, len(vs), len(want))
		}
	}
	if n := cMemoFills.Value() - fills; n != 1 {
		t.Fatalf("%d memo fills counted for one node, want 1", n)
	}
}

// TestVertexMemoDiesWithItsEpoch: a live update that changes a community's
// vertex set shows in the next answer, while the retired index keeps
// answering its own state from its own memo.
func TestVertexMemoDiesWithItsEpoch(t *testing.T) {
	g := gen.Clique(5)
	idx, tau := indexFromGraph(t, g)
	dg := dynamic.FromStatic(g, tau)
	mt := NewMaintainer(idx)
	vertsAt := func(ix *Index, v, k int32) []int32 {
		refs := ix.CommunityRefs(v, k)
		if len(refs) != 1 {
			t.Fatalf("CommunityRefs(%d, %d): %d communities, want 1", v, k, len(refs))
		}
		return refs[0].Vertices()
	}
	before := vertsAt(idx, 0, 3) // fills the old epoch's memo
	if want := []int32{0, 1, 2, 3, 4}; !slices.Equal(before, want) {
		t.Fatalf("before the update: %v, want %v", before, want)
	}

	// Vertex 5 closes a triangle on edge (0, 1) and joins the 3-community.
	for _, e := range [][2]int32{{0, 5}, {1, 5}} {
		if _, err := dg.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	next, _, err := mt.Apply(EdgeDelta(dg.Delta()), 0)
	if err != nil {
		t.Fatal(err)
	}
	dg.ResetDelta()
	if got, want := vertsAt(next, 0, 3), []int32{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("after inserting vertex 5: %v, want %v", got, want)
	}
	if got := vertsAt(idx, 0, 3); !slices.Equal(got, before) {
		t.Fatalf("retired index changed its answer: %v, want %v", got, before)
	}

	// Deleting (1, 5) breaks the triangle: vertex 5 leaves again.
	if !dg.DeleteEdge(1, 5) {
		t.Fatal("delete failed")
	}
	last, _, err := mt.Apply(EdgeDelta(dg.Delta()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := vertsAt(last, 0, 3); !slices.Equal(got, before) {
		t.Fatalf("after deleting (1, 5): %v, want %v", got, before)
	}
}

// sumVerts returns Σ verts over the hierarchy's nodes: what a full memo
// holds.
func sumVerts(h *Hierarchy) int64 {
	var s int64
	for _, n := range h.verts {
		s += n
	}
	return s
}

// TestVertexMemoBoundHolds checks the structural fact the memo's 2·m
// budget rests on: a full memo holds fewer int32s than the graph has edge
// endpoints, on skewed, planted and nested-clique graphs alike.
func TestVertexMemoBoundHolds(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat-skew", gen.RMAT(10, 12, 0.65, 0.15, 0.15, 11)},
		{"planted", gen.PlantedPartition(40, 20, 0.7, 3, 12)},
		{"clique-pair", gen.SharedEdgeCliquePair(9, 7)},
		{"bridged-cliques", gen.BridgedCliques(8)},
		{"dblp-sim", gen.Datasets[1].Generate(0.01)},
	} {
		idx, _ := indexFromGraph(t, tc.g)
		h := idx.Hierarchy()
		if s, endpoints := sumVerts(h), 2*int64(tc.g.NumEdges()); s >= endpoints {
			t.Fatalf("%s: a full memo holds %d int32s, not below 2·m = %d", tc.name, s, endpoints)
		}
	}
}

// TestVertexMemoOverBudget drives the uncached branch. No hierarchy's full
// memo reaches 2·m (TestVertexMemoBoundHolds), so the test allocates the
// memo with half of Σ verts as its budget before the first read: fills past
// it are counted, answered correctly, and not stored.
func TestVertexMemoOverBudget(t *testing.T) {
	idx, tau := indexFromGraph(t, gen.PlantedPartition(30, 12, 0.7, 2, 8))
	h := idx.Hierarchy()
	budget := sumVerts(h) / 2
	m := h.vertexMemo(budget)
	over := cMemoOverCap.Value()
	for pass := 0; pass < 2; pass++ {
		for k := int32(core.MinK); k <= truss.KMax(tau); k++ {
			for _, r := range idx.AllCommunityRefs(k) {
				if got, want := r.Vertices(), bruteVertices(idx.G, r.Edges()); !slices.Equal(got, want) {
					t.Fatalf("pass %d, k=%d: %v, want %v", pass, k, got, want)
				}
			}
		}
	}
	if cMemoOverCap.Value() == over {
		t.Fatal("no fill was refused: the budget never bound")
	}
	if used := m.used.Load(); used > budget {
		t.Fatalf("memo holds %d int32s, budget %d", used, budget)
	}
	stored := int64(0)
	for i := range m.lists {
		if p := m.lists[i].Load(); p != nil {
			stored += int64(len(*p))
		}
	}
	if stored != m.used.Load() {
		t.Fatalf("memo lists hold %d int32s, accounting says %d", stored, m.used.Load())
	}
}

// TestAppendVerticesHitAllocatesNothing pins the memo hit: a copy into a
// dst with room allocates nothing, whatever the answer's size.
func TestAppendVerticesHitAllocatesNothing(t *testing.T) {
	idx, _ := indexFromGraph(t, gen.RMAT(10, 8, 0.57, 0.19, 0.19, 7))
	refs := idx.AllCommunityRefs(core.MinK)
	if len(refs) == 0 {
		t.Fatal("fixture has no communities")
	}
	for _, r := range refs[:min(len(refs), 3)] {
		dst := make([]int32, 0, r.NumVertices())
		dst = r.AppendVertices(dst) // fill
		if allocs := testing.AllocsPerRun(100, func() { dst = r.AppendVertices(dst[:0]) }); allocs != 0 {
			t.Fatalf("memo hit of %d vertices: %.0f allocs, want 0", len(dst), allocs)
		}
	}
}

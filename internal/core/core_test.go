package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
)

func randomGraph(seed int64, n int32, p float64) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	var in []graph.Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rnd.Float64() < p {
				in = append(in, graph.Edge{U: u, V: v})
			}
		}
	}
	g, err := graph.FromEdgeList(in, n)
	if err != nil {
		panic(err)
	}
	return g
}

// TestVariantEquivalenceRandom is the paper's central exactness claim
// (§4.3: "the results are identical in all cases"): all four builders
// produce the same supernode partition and superedge set, at any thread
// count.
func TestVariantEquivalenceRandom(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 28, 0.3)
		tau := buildTau(t, g)
		want, _ := testkit.Summary(g, tau, core.VariantSerial, 1)
		if err := want.Validate(g); err != nil {
			t.Logf("serial invalid: %v", err)
			return false
		}
		wantCanon := want.Canonical(g)
		for _, variant := range core.ParallelVariants {
			for _, threads := range []int{1, 2, 4} {
				got, _ := testkit.Summary(g, tau, variant, threads)
				if err := got.Validate(g); err != nil {
					t.Logf("%s/%d invalid: %v", variant, threads, err)
					return false
				}
				if got.Canonical(g) != wantCanon {
					t.Logf("%s/%d canonical mismatch", variant, threads)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestVariantEquivalenceStructured(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"figure3":    gen.PaperFigure3(),
		"bowtie":     gen.TwoTriangles(),
		"strip":      gen.TriangleStrip(40),
		"bridged":    gen.BridgedCliques(6),
		"sharedEdge": gen.SharedEdgeCliquePair(7, 5),
		"planted":    gen.PlantedPartition(8, 8, 0.75, 1.2, 17),
		"rmat":       gen.RMAT(10, 6, 0.57, 0.19, 0.19, 18),
		"ba":         gen.BarabasiAlbert(300, 4, 19),
		"path":       gen.Path(10),
		"clique":     gen.Clique(10),
	}
	for name, g := range graphs {
		tau := buildTau(t, g)
		want, _ := testkit.Summary(g, tau, core.VariantSerial, 1)
		if err := want.Validate(g); err != nil {
			t.Fatalf("%s: serial invalid: %v", name, err)
		}
		wantCanon := want.Canonical(g)
		for _, variant := range core.ParallelVariants {
			got, _ := testkit.Summary(g, tau, variant, 2)
			if err := got.Validate(g); err != nil {
				t.Fatalf("%s/%s: invalid: %v", name, variant, err)
			}
			if got.Canonical(g) != wantCanon {
				t.Errorf("%s/%s: differs from serial:\n--- serial ---\n%s--- %s ---\n%s",
					name, variant, wantCanon, variant, got.Canonical(g))
			}
		}
	}
}

// TestSupernodePropertyDefinition checks Definition 8 on a structured
// graph: every supernode's members share trussness (checked by Validate)
// and are pairwise connected via same-k triangle chains; maximality holds
// (no same-k edge outside the supernode shares a qualifying triangle with a
// member).
func TestSupernodePropertyDefinition(t *testing.T) {
	g := gen.PlantedPartition(5, 9, 0.7, 1.5, 23)
	tau := buildTau(t, g)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, 2)
	if err := sg.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Maximality + internal connectivity via direct BFS per supernode.
	for s := int32(0); s < sg.NumSupernodes(); s++ {
		members := sg.SupernodeEdges(s)
		k := sg.K[s]
		inSN := make(map[int32]bool, len(members))
		for _, e := range members {
			inSN[e] = true
		}
		// BFS from the first member over same-k qualifying triangles must
		// reach exactly the members.
		visited := map[int32]bool{members[0]: true}
		stack := []int32{members[0]}
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
				if tau[e1] < k || tau[e2] < k {
					return true
				}
				for _, nxt := range []int32{e1, e2} {
					if tau[nxt] == k && !visited[nxt] {
						visited[nxt] = true
						stack = append(stack, nxt)
					}
				}
				return true
			})
		}
		if len(visited) != len(members) {
			t.Fatalf("supernode %d (k=%d): BFS reached %d edges, has %d members",
				s, k, len(visited), len(members))
		}
		for e := range visited {
			if !inSN[e] {
				t.Fatalf("supernode %d: BFS escaped to edge %d", s, e)
			}
		}
	}
}

// TestSuperedgeDefinition checks Definition 9 directly on the built index:
// a superedge (ν1, ν2) exists iff some triangle contains a member of the
// lower supernode as its minimum-trussness edge and a member of the other.
func TestSuperedgeDefinition(t *testing.T) {
	g := gen.SharedEdgeCliquePair(7, 5)
	tau := buildTau(t, g)
	sg, _ := testkit.Summary(g, tau, core.VariantAfforest, 2)
	// Recompute the expected superedge set by scanning all triangles.
	type pair struct{ a, b int32 }
	want := map[pair]bool{}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if tau[e] < 3 {
			continue
		}
		g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
			k, k1, k2 := tau[e], tau[e1], tau[e2]
			lowest := k
			if k1 < lowest {
				lowest = k1
			}
			if k2 < lowest {
				lowest = k2
			}
			if k > lowest {
				for _, other := range []int32{e1, e2} {
					if tau[other] == lowest {
						a, b := sg.EdgeToSN[other], sg.EdgeToSN[e]
						if a > b {
							a, b = b, a
						}
						want[pair{a, b}] = true
					}
				}
			}
			return true
		})
	}
	got := map[pair]bool{}
	for s := int32(0); s < sg.NumSupernodes(); s++ {
		for _, nb := range sg.SupernodeNeighbors(s) {
			a, b := s, nb
			if a > b {
				a, b = b, a
			}
			got[pair{a, b}] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("superedges = %d, want %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing superedge %v", p)
		}
	}
}

func TestBowtieSeparateSupernodes(t *testing.T) {
	// Two triangles sharing only a vertex are NOT triangle-connected:
	// two k=3 supernodes, no superedges.
	g := gen.TwoTriangles()
	tau := buildTau(t, g)
	for _, variant := range core.Variants {
		sg, _ := testkit.Summary(g, tau, variant, 2)
		if sg.NumSupernodes() != 2 {
			t.Fatalf("%s: supernodes = %d, want 2", variant, sg.NumSupernodes())
		}
		if sg.NumSuperedges() != 0 {
			t.Fatalf("%s: superedges = %d, want 0", variant, sg.NumSuperedges())
		}
	}
}

func TestTriangleFreeGraphHasEmptyIndex(t *testing.T) {
	g := gen.Cycle(12)
	tau := buildTau(t, g)
	for _, variant := range core.Variants {
		sg, _ := testkit.Summary(g, tau, variant, 2)
		if sg.NumSupernodes() != 0 || sg.NumSuperedges() != 0 {
			t.Fatalf("%s: cycle produced %v", variant, sg)
		}
		for _, sn := range sg.EdgeToSN {
			if sn != core.NoSupernode {
				t.Fatalf("%s: τ=2 edge assigned to supernode", variant)
			}
		}
	}
}

func TestSharedVertexHighTrussSeparation(t *testing.T) {
	// Two K5s sharing only the single vertex (via bridge construction
	// through separate builds): BridgedCliques gives two k-5 supernodes
	// and a τ=2 bridge — no superedges at all.
	g := gen.BridgedCliques(5)
	tau := buildTau(t, g)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, 2)
	if sg.NumSupernodes() != 2 {
		t.Fatalf("supernodes = %d, want 2", sg.NumSupernodes())
	}
	if sg.NumSuperedges() != 0 {
		t.Fatalf("superedges = %d, want 0", sg.NumSuperedges())
	}
	bridge := g.EdgeID(4, 5)
	if sg.EdgeToSN[bridge] != core.NoSupernode {
		t.Fatal("bridge assigned to a supernode")
	}
}

func TestTimingsAccounting(t *testing.T) {
	g := gen.PlantedPartition(6, 8, 0.7, 1.0, 31)
	tau := buildTau(t, g)
	for _, variant := range core.ParallelVariants {
		_, tm := testkit.Summary(g, tau, variant, 2)
		if tm.IndexTotal() <= 0 {
			t.Fatalf("%s: IndexTotal = %v", variant, tm.IndexTotal())
		}
		if tm.Threads != 2 {
			t.Fatalf("%s: Threads = %d", variant, tm.Threads)
		}
		sum := tm.Init + tm.SpNode + tm.SpEdge + tm.SmGraph + tm.SpNodeRemap
		if sum != tm.IndexTotal() {
			t.Fatalf("%s: kernel sum %v != IndexTotal %v", variant, sum, tm.IndexTotal())
		}
	}
}

func TestBuildPanicsOnBadTau(t *testing.T) {
	g := gen.Clique(4)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched tau accepted")
		}
	}()
	testkit.Summary(g, []int32{3}, core.VariantCOptimal, 1)
}

func TestVariantString(t *testing.T) {
	names := map[core.Variant]string{
		core.VariantSerial:   "Original",
		core.VariantBaseline: "Baseline",
		core.VariantCOptimal: "C-Optimal",
		core.VariantAfforest: "Afforest",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
	if core.Variant(99).String() != "Variant(99)" {
		t.Error("unknown variant string")
	}
}

func TestEmptyGraphIndex(t *testing.T) {
	g, _ := graph.FromEdgeList(nil, 3)
	for _, variant := range core.Variants {
		sg, _ := testkit.Summary(g, nil, variant, 2)
		if sg.NumSupernodes() != 0 || sg.NumSuperedges() != 0 {
			t.Fatalf("%s: empty graph produced %v", variant, sg)
		}
		if err := sg.Validate(g); err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
	}
}

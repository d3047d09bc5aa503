package truss

import (
	"math/rand"
	"testing"
	"testing/quick"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
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

// supportsOf and decompose run the kernels without a context, the form
// that cannot fail.
func supportsOf(g *graph.Graph, threads int) []int32 {
	sup, _, err := triangle.SupportsOrientedCtx(nil, g, threads, nil)
	if err != nil {
		panic(err)
	}
	return sup
}

func decompose(g *graph.Graph, sup []int32, k PeelKernel, threads int) ([]int32, int32) {
	tau, kmax, err := DecomposeKernelCtx(nil, g, sup, k, threads, nil)
	if err != nil {
		panic(err)
	}
	return tau, kmax
}

func serialTau(g *graph.Graph) []int32 {
	sup := supportsOf(g, 1)
	tau, _ := decompose(g, sup, PeelSerial, 1)
	return tau
}

func TestCliqueTrussness(t *testing.T) {
	// K_n is an n-truss: every edge has trussness n.
	for n := int32(3); n <= 8; n++ {
		g := gen.Clique(n)
		tau := serialTau(g)
		for e, k := range tau {
			if k != n {
				t.Fatalf("K%d: τ[%d] = %d, want %d", n, e, k, n)
			}
		}
	}
}

func TestTriangleFreeTrussness(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Path(10), gen.Cycle(12)} {
		tau := serialTau(g)
		for e, k := range tau {
			if k != MinTrussness {
				t.Fatalf("τ[%d] = %d, want 2", e, k)
			}
		}
	}
}

func TestKMaxHelper(t *testing.T) {
	if KMax(nil) != MinTrussness {
		t.Fatal("KMax(nil)")
	}
	if KMax([]int32{2, 5, 3}) != 5 {
		t.Fatal("KMax wrong")
	}
}

func TestBridgedCliquesTrussness(t *testing.T) {
	// Two K6 joined by a bridge: clique edges τ=6, bridge τ=2.
	g := gen.BridgedCliques(6)
	tau := serialTau(g)
	bridge := g.EdgeID(5, 6)
	for e, k := range tau {
		want := int32(6)
		if int32(e) == bridge {
			want = 2
		}
		if k != want {
			t.Fatalf("τ[%d] = %d, want %d", e, k, want)
		}
	}
}

func TestTriangleStripTrussness(t *testing.T) {
	g := gen.TriangleStrip(12)
	tau := serialTau(g)
	for e, k := range tau {
		if k != 3 {
			t.Fatalf("strip τ[%d] = %d, want 3", e, k)
		}
	}
}

func TestSerialMatchesBrute(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 18, 0.35)
		tau := serialTau(g)
		want := DecomposeBrute(g)
		for i := range want {
			if tau[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 30, 0.25)
		sup := supportsOf(g, 2)
		want, wantK := decompose(g, sup, PeelSerial, 1)
		for _, threads := range []int{1, 2, 4} {
			got, gotK := decompose(g, sup, PeelLevelSync, threads)
			if gotK != wantK {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSerialOnStructuredGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"figure3":    gen.PaperFigure3(),
		"planted":    gen.PlantedPartition(10, 8, 0.8, 1.0, 5),
		"rmat":       gen.RMAT(10, 6, 0.57, 0.19, 0.19, 6),
		"ba":         gen.BarabasiAlbert(400, 4, 7),
		"clique":     gen.Clique(12),
		"strip":      gen.TriangleStrip(50),
		"sharedEdge": gen.SharedEdgeCliquePair(6, 5),
	}
	for name, g := range graphs {
		sup := supportsOf(g, 2)
		want, _ := decompose(g, sup, PeelSerial, 1)
		got, _ := decompose(g, sup, PeelLevelSync, 2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: τ[%d] parallel %d vs serial %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestParallelLevelSkip peels a triangle next to a K16: supports are 1 and
// 14, so levels 2..13 are empty and the peeler must jump the gap (counted
// in truss_peel_level_skips) while keeping τ bit-identical to the serial
// decomposition at every thread count.
func TestParallelLevelSkip(t *testing.T) {
	in := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}
	const base, n = int32(3), int32(16)
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			in = append(in, graph.Edge{U: base + u, V: base + v})
		}
	}
	g, err := graph.FromEdgeList(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	sup := supportsOf(g, 2)
	want, wantK := decompose(g, sup, PeelSerial, 1)
	if wantK != 16 {
		t.Fatalf("serial kmax = %d, want 16", wantK)
	}
	before := cPeelLevelSkips.Value()
	for _, threads := range []int{1, 2, 4, 8} {
		got, gotK := decompose(g, sup, PeelLevelSync, threads)
		if gotK != wantK {
			t.Fatalf("threads=%d: kmax %d vs %d", threads, gotK, wantK)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d: τ[%d] parallel %d vs serial %d", threads, i, got[i], want[i])
			}
		}
	}
	// Each run must cross the 12-level gap between support 1 and 14 in one
	// jump rather than scanning it level by level.
	if skips := cPeelLevelSkips.Value() - before; skips < 12 {
		t.Fatalf("level skips = %d, want >= 12", skips)
	}
}

// TestTrussnessInvariant checks the defining property directly: within the
// subgraph of edges with τ >= k, every such edge has at least k-2
// triangles (so H_k is a k-truss), for every k present.
func TestTrussnessInvariant(t *testing.T) {
	g := gen.PlantedPartition(6, 10, 0.7, 1.0, 9)
	tau := serialTau(g)
	kmax := KMax(tau)
	for k := int32(3); k <= kmax; k++ {
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if tau[e] < k {
				continue
			}
			var sup int32
			g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
				if tau[e1] >= k && tau[e2] >= k {
					sup++
				}
				return true
			})
			if sup < k-2 {
				t.Fatalf("k=%d: edge %d has support %d in H_k", k, e, sup)
			}
		}
	}
}

// TestTrussnessMaximality: an edge with τ(e)=k must NOT survive peeling at
// k+1 — checked via the brute-force oracle already, but here directly on a
// structured example to catch off-by-one regressions.
func TestTrussnessMaximality(t *testing.T) {
	g := gen.SharedEdgeCliquePair(6, 4) // K6 and K4 sharing an edge
	tau := serialTau(g)
	want := DecomposeBrute(g)
	for i := range want {
		if tau[i] != want[i] {
			t.Fatalf("τ[%d] = %d, oracle %d", i, tau[i], want[i])
		}
	}
	// The shared edge must carry the larger clique's trussness.
	shared := g.EdgeID(4, 5)
	if tau[shared] != 6 {
		t.Fatalf("shared edge τ = %d, want 6", tau[shared])
	}
}

func TestDecomposeEmptyAndTiny(t *testing.T) {
	g, _ := graph.FromEdgeList(nil, 4)
	tau, kmax := decompose(g, nil, PeelSerial, 1)
	if len(tau) != 0 || kmax != MinTrussness {
		t.Fatalf("empty: tau=%v kmax=%d", tau, kmax)
	}
	tau, kmax = decompose(g, nil, PeelLevelSync, 2)
	if len(tau) != 0 || kmax != MinTrussness {
		t.Fatalf("empty parallel: tau=%v kmax=%d", tau, kmax)
	}
	single, _ := graph.FromEdgeList([]graph.Edge{{U: 0, V: 1}}, 0)
	sup := supportsOf(single, 1)
	tau, kmax = decompose(single, sup, PeelSerial, 1)
	if tau[0] != 2 || kmax != 2 {
		t.Fatalf("single edge: τ=%d kmax=%d", tau[0], kmax)
	}
}

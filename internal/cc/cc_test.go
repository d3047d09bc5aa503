package cc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
)

func randomSparseGraph(seed int64, n int32, m int) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	var in []graph.Edge
	for i := 0; i < m; i++ {
		in = append(in, graph.Edge{U: int32(rnd.Intn(int(n))), V: int32(rnd.Intn(int(n)))})
	}
	g, err := graph.FromEdgeList(in, n)
	if err != nil {
		panic(err)
	}
	return g
}

// algorithms runs every CC algorithm without a context, the form that
// cannot fail.
var algorithms = map[string]func(*graph.Graph, int) []int32{
	"sv":       func(g *graph.Graph, t int) []int32 { return must(ShiloachVishkinCtx(nil, g, t, nil)) },
	"lp":       func(g *graph.Graph, t int) []int32 { return must(LabelPropagationCtx(nil, g, t)) },
	"bfs":      func(g *graph.Graph, t int) []int32 { return must(BFSCtx(nil, g, t)) },
	"afforest": func(g *graph.Graph, t int) []int32 { return must(AfforestCtx(nil, g, t, nil)) },
}

func must(labels []int32, err error) []int32 {
	if err != nil {
		panic(err)
	}
	return labels
}

func labelsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	na, nb := Normalize(a), Normalize(b)
	for i := range na {
		if na[i] != nb[i] {
			return false
		}
	}
	return true
}

func TestAllAlgorithmsMatchReference(t *testing.T) {
	check := func(seed int64) bool {
		// Sparse: many components. Dense-ish: one giant component.
		for _, m := range []int{30, 400} {
			g := randomSparseGraph(seed, 100, m)
			want := Reference(g)
			for _, threads := range []int{1, 2, 4} {
				for _, algo := range algorithms {
					if !labelsEqual(want, algo(g, threads)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsOnKnownShapes(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path", gen.Path(10), 1},
		{"cycle", gen.Cycle(10), 1},
		{"bowtie", gen.TwoTriangles(), 1},
		{"bridged", gen.BridgedCliques(4), 1},
		{"planted", gen.PlantedPartition(5, 6, 1.0, 0, 3), 5},
	}
	for _, tc := range cases {
		for name, algo := range algorithms {
			labels := algo(tc.g, 2)
			if got := CountComponents(labels); got != tc.want {
				t.Errorf("%s/%s: components = %d, want %d", tc.name, name, got, tc.want)
			}
		}
	}
}

func TestIsolatedVertices(t *testing.T) {
	g, err := graph.FromEdgeList([]graph.Edge{{U: 0, V: 1}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(g)
	if CountComponents(want) != 4 {
		t.Fatalf("reference components = %d, want 4", CountComponents(want))
	}
	for name, algo := range algorithms {
		if !labelsEqual(want, algo(g, 2)) {
			t.Errorf("%s differs on isolated vertices", name)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	labels := []int32{5, 5, 2, 2, 9}
	n1 := Normalize(labels)
	n2 := Normalize(n1)
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatal("Normalize not idempotent")
		}
	}
	// Component labelled 5 covering {0,1} must normalize to 0.
	if n1[0] != 0 || n1[1] != 0 {
		t.Fatalf("normalize = %v", n1)
	}
}

func TestRMATGiantComponent(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 21)
	want := Reference(g)
	for name, algo := range algorithms {
		if !labelsEqual(want, algo(g, 2)) {
			t.Errorf("%s differs on RMAT graph", name)
		}
	}
}

package triangle

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"equitruss/internal/concur"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
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

// supports runs the Support kernel without a context, the form that
// cannot fail.
func supports(g *graph.Graph, threads int) []int32 {
	sup, _, err := SupportsOrientedCtx(nil, g, threads, nil)
	if err != nil {
		panic(err)
	}
	return sup
}

// count is the number of triangles the stream visits in g.
func count(g *graph.Graph, threads int) int64 {
	x := concur.Exec{Threads: threads}
	o, err := Orient(x, "", g)
	if err != nil {
		panic(err)
	}
	var n atomic.Int64
	if err := o.ForEachTriangle(x, "", func(int, int32, int32, int32) { n.Add(1) }); err != nil {
		panic(err)
	}
	return n.Load()
}

// commonNeighborSupports is the per-edge reference: |N(u) ∩ N(v)| by a
// sorted-merge intersection of the two full adjacencies.
func commonNeighborSupports(g *graph.Graph) []int32 {
	sup := make([]int32, g.NumEdges())
	for eid, e := range g.Edges() {
		sup[eid] = g.CommonNeighborCount(e.U, e.V)
	}
	return sup
}

// equalSupports fails t at the first edge whose support differs.
func equalSupports(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d supports, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: support[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// bruteSupports counts triangles per edge by checking every vertex.
func bruteSupports(g *graph.Graph) []int32 {
	n := g.NumVertices()
	sup := make([]int32, g.NumEdges())
	for eid := int32(0); eid < int32(g.NumEdges()); eid++ {
		e := g.Edge(eid)
		for w := int32(0); w < n; w++ {
			if w != e.U && w != e.V && g.HasEdge(e.U, w) && g.HasEdge(e.V, w) {
				sup[eid]++
			}
		}
	}
	return sup
}

func TestSupportsKnownShapes(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want func(eid int32) int32
	}{
		{"K5", gen.Clique(5), func(int32) int32 { return 3 }},
		{"path", gen.Path(6), func(int32) int32 { return 0 }},
		{"cycle", gen.Cycle(8), func(int32) int32 { return 0 }},
		{"triangle", gen.Clique(3), func(int32) int32 { return 1 }},
	}
	for _, tc := range cases {
		sup := supports(tc.g, 2)
		for eid, s := range sup {
			if want := tc.want(int32(eid)); s != want {
				t.Errorf("%s: support[%d] = %d, want %d", tc.name, eid, s, want)
			}
		}
	}
}

func TestSupportsMatchesBrute(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 20, 0.3)
		want := bruteSupports(g)
		for _, threads := range []int{1, 2, 4} {
			got := supports(g, threads)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// starPlusClique is a 600-vertex star whose first 19 leaves form a clique:
// the hub's adjacency is far longer than any leaf's, the shape on which a
// per-edge intersection and the oriented enumeration differ most.
func starPlusClique(t *testing.T) *graph.Graph {
	var in []graph.Edge
	for v := int32(1); v < 600; v++ {
		in = append(in, graph.Edge{U: 0, V: v})
	}
	for u := int32(1); u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			in = append(in, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdgeList(in, 600)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCountKnown(t *testing.T) {
	if got := count(gen.Clique(5), 2); got != 10 {
		t.Fatalf("K5 triangles = %d, want 10", got)
	}
	if got := count(gen.Clique(6), 2); got != 20 {
		t.Fatalf("K6 triangles = %d, want 20", got)
	}
	if got := count(gen.Path(10), 2); got != 0 {
		t.Fatalf("path triangles = %d", got)
	}
	if got := count(gen.PaperFigure3(), 1); got <= 0 {
		t.Fatalf("figure 3 triangles = %d", got)
	}
}

// star is a hub joined to n-1 leaves: the longest adjacency there is,
// and no triangle.
func star(t *testing.T, n int32) *graph.Graph {
	var in []graph.Edge
	for v := int32(1); v < n; v++ {
		in = append(in, graph.Edge{U: 0, V: v})
	}
	g, err := graph.FromEdgeList(in, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bruteTriangles lists every triangle of g as its three edge IDs in
// ascending order, found from each edge (u, v), u < v, and each common
// neighbour above v.
func bruteTriangles(g *graph.Graph) [][3]int32 {
	var out [][3]int32
	for uv, e := range g.Edges() {
		u, v := min(e.U, e.V), max(e.U, e.V)
		for _, w := range g.Neighbors(u) {
			if w > v && g.HasEdge(v, w) {
				tri := [3]int32{int32(uv), g.EdgeID(u, w), g.EdgeID(v, w)}
				slices.Sort(tri[:])
				out = append(out, tri)
			}
		}
	}
	slices.SortFunc(out, compareTriples)
	return out
}

func compareTriples(a, b [3]int32) int { return slices.Compare(a[:], b[:]) }

// TestForEachTriangleVisitsEachOnce: at one and at four threads the stream
// calls fn once per triangle and never twice, so the sorted edge triples it
// reports are exactly the brute-force list; e shares a vertex with e1 and
// with e2, and tid stays below the thread count.
func TestForEachTriangleVisitsEachOnce(t *testing.T) {
	empty, err := graph.FromEdgeList(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"figure3":        gen.PaperFigure3(),
		"rmat":           gen.RMAT(10, 8, 0.57, 0.19, 0.19, 33),
		"planted":        gen.PlantedPartition(6, 9, 0.7, 1.0, 34),
		"strip":          gen.TriangleStrip(40),
		"star":           star(t, 600),
		"starPlusClique": starPlusClique(t),
		"empty":          empty,
	}
	for name, g := range graphs {
		want := bruteTriangles(g)
		if len(want) == 0 && name != "star" && name != "empty" {
			t.Fatalf("%s: fixture has no triangle", name)
		}
		for _, threads := range []int{1, 4} {
			x := concur.Exec{Threads: threads}
			o, err := Orient(x, "", g)
			if err != nil {
				t.Fatal(err)
			}
			per := make([][][3]int32, threads)
			err = o.ForEachTriangle(x, "", func(tid int, e, e1, e2 int32) {
				a, b, c := g.Edge(e), g.Edge(e1), g.Edge(e2)
				if !shareVertex(a, b) || !shareVertex(a, c) {
					t.Errorf("%s/%d: edges %v %v %v do not close a triangle", name, threads, a, b, c)
				}
				tri := [3]int32{e, e1, e2}
				slices.Sort(tri[:])
				per[tid] = append(per[tid], tri)
			})
			if err != nil {
				t.Fatal(err)
			}
			got := slices.Concat(per...)
			slices.SortFunc(got, compareTriples)
			if !slices.EqualFunc(got, want, func(a, b [3]int32) bool { return a == b }) {
				t.Errorf("%s/%d: stream visited %d triangles, brute force finds %d distinct ones",
					name, threads, len(got), len(want))
			}
		}
	}
}

func shareVertex(a, b graph.Edge) bool {
	return a.U == b.U || a.U == b.V || a.V == b.U || a.V == b.V
}

// TestForEachTriangleCancel: a context cancelled from inside the stream
// stops it early; the call returns ctx.Err() with every worker joined, so
// fn is never called after it returns.
func TestForEachTriangleCancel(t *testing.T) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 5)
	total := int64(len(bruteTriangles(g)))
	for _, threads := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		x := concur.Exec{Ctx: ctx, Threads: threads}
		o, err := Orient(x, "", g)
		if err != nil {
			t.Fatal(err)
		}
		var visited atomic.Int64
		var returned atomic.Bool
		err = o.ForEachTriangle(x, "", func(_ int, _, _, _ int32) {
			if returned.Load() {
				t.Error("fn called after ForEachTriangle returned")
			}
			if visited.Add(1) == 100 {
				cancel()
			}
		})
		returned.Store(true)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("threads %d: cancelled stream returned %v", threads, err)
		}
		if n := visited.Load(); n >= total {
			t.Fatalf("threads %d: cancelled stream still visited all %d triangles", threads, n)
		}
		// A joined worker has called wg.Done but may still be exiting; a
		// leaked one never exits, so the count must settle within the bound.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("threads %d: %d goroutines after the stream returned, %d before", threads, n, base)
		}
	}
}

func TestSupportsEmptyGraph(t *testing.T) {
	g, _ := graph.FromEdgeList(nil, 3)
	if sup := supports(g, 2); len(sup) != 0 {
		t.Fatalf("supports on edgeless graph: %v", sup)
	}
	if count(g, 2) != 0 {
		t.Fatal("count on edgeless graph")
	}
}

// TestSupportsOrientedOnGenerators: the kernel's supports equal the
// per-edge common-neighbour counts on every generator shape, hub-heavy
// ones included.
func TestSupportsOrientedOnGenerators(t *testing.T) {
	graphs := []*graph.Graph{
		gen.PaperFigure3(),
		gen.RMAT(10, 8, 0.57, 0.19, 0.19, 33),
		gen.PlantedPartition(6, 9, 0.7, 1.0, 34),
		gen.Clique(9),
		starPlusClique(t),
	}
	for gi, g := range graphs {
		equalSupports(t, fmt.Sprintf("graph %d", gi), supports(g, 2), commonNeighborSupports(g))
	}
}

// TestSupportsOrientedEmpty: an edgeless graph still hands back its
// orientation, so a build over it does not orient a second time.
func TestSupportsOrientedEmpty(t *testing.T) {
	g, _ := graph.FromEdgeList(nil, 5)
	s, o, err := SupportsOrientedCtx(nil, g, 2, nil)
	if err != nil || len(s) != 0 {
		t.Fatalf("supports on empty graph: %v, %v", s, err)
	}
	if o == nil || o.Graph() != g {
		t.Fatal("no orientation of the empty graph handed back")
	}
}

// TestSupportsAtomicCredits: above accArrayLimit the kernel credits each
// triangle with atomic adds instead of per-thread arrays. Enough workers
// on an R-MAT graph push it over the limit (goroutines, not OS threads);
// both branches must match the per-edge reference.
func TestSupportsAtomicCredits(t *testing.T) {
	g := gen.RMAT(13, 16, 0.57, 0.19, 0.19, 1)
	m := int(g.NumEdges())
	want := commonNeighborSupports(g)
	for _, threads := range []int{accArrayLimit/m + 1, 2} {
		equalSupports(t, fmt.Sprintf("%d threads (%d credit entries)", threads, threads*m), supports(g, threads), want)
	}
}

// TestKernelsAgreeOnAllDatasets is the differential gate: the kernel's
// supports equal the per-edge common-neighbour counts on every dataset
// surrogate plus a skewed R-MAT graph. Runs under -race in `make ci`.
func TestKernelsAgreeOnAllDatasets(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat12": gen.RMAT(12, 8, 0.57, 0.19, 0.19, 7),
	}
	for _, spec := range gen.Datasets {
		graphs[spec.Name] = spec.Generate(0.01)
	}
	for name, g := range graphs {
		equalSupports(t, name, supports(g, 3), commonNeighborSupports(g))
	}
}

// TestCountInvariant: the sum of edge supports is exactly three times the
// number of triangles the stream visits (each triangle credits its three
// edges once).
func TestCountInvariant(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 9)
	want := count(g, 2)
	if want <= 0 {
		t.Fatalf("RMAT-11 triangle count = %d", want)
	}
	var sum int64
	for _, s := range supports(g, 2) {
		sum += int64(s)
	}
	if sum%3 != 0 {
		t.Fatalf("support sum %d not divisible by 3", sum)
	}
	if sum/3 != want {
		t.Fatalf("%d triangles via supports, the stream visits %d", sum/3, want)
	}
}

func TestSupportsCtxFormsCancel(t *testing.T) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SupportsOrientedCtx(ctx, g, 2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled SupportsOrientedCtx returned %v", err)
	}
	if _, err := SupportsKernelCtx(ctx, g, KernelAuto, 2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled SupportsKernelCtx returned %v", err)
	}
}

// TestOrientedSpansNamedSupport: the orientation and the stream pass report
// themselves under the "Support" span name, so pipeline reports aggregate
// the stage.
func TestOrientedSpansNamedSupport(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	tr := obs.NewTrace()
	if _, _, err := SupportsOrientedCtx(context.Background(), g, 3, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("Support kernel emitted no spans")
	}
	for _, s := range tr.Spans() {
		if s.Name != "Support" {
			t.Fatalf("span named %q, want Support", s.Name)
		}
	}
}

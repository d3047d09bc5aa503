package metrics

import (
	"math"
	"testing"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
)

func verts(n int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDensity(t *testing.T) {
	k5 := gen.Clique(5)
	if d := Density(k5, verts(5)); !almost(d, 1.0) {
		t.Fatalf("K5 density = %f", d)
	}
	p4 := gen.Path(4)
	if d := Density(p4, verts(4)); !almost(d, 0.5) {
		t.Fatalf("P4 density = %f, want 0.5", d)
	}
	if d := Density(k5, []int32{0}); d != 0 {
		t.Fatalf("singleton density = %f", d)
	}
}

func TestConductance(t *testing.T) {
	// Two K4s joined by one bridge: the K4 side has cut 1, volume 13.
	g := gen.BridgedCliques(4)
	side := []int32{0, 1, 2, 3}
	want := 1.0 / 13.0
	if c := Conductance(g, side); !almost(c, want) {
		t.Fatalf("conductance = %f, want %f", c, want)
	}
	// Whole graph: no cut.
	if c := Conductance(g, verts(8)); c != 0 {
		t.Fatalf("whole-graph conductance = %f", c)
	}
}

func TestMinInternalDegree(t *testing.T) {
	k5 := gen.Clique(5)
	if d := MinInternalDegree(k5, verts(5)); d != 4 {
		t.Fatalf("K5 min degree = %d", d)
	}
	if d := MinInternalDegree(k5, []int32{0, 1, 2}); d != 2 {
		t.Fatalf("K3 subset min degree = %d", d)
	}
	if d := MinInternalDegree(k5, nil); d != 0 {
		t.Fatalf("empty min degree = %d", d)
	}
}

func TestAverageClustering(t *testing.T) {
	k4 := gen.Clique(4)
	if c := AverageClustering(k4, verts(4)); !almost(c, 1.0) {
		t.Fatalf("K4 clustering = %f", c)
	}
	star, _ := graph.FromEdgeList([]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}}, 0)
	if c := AverageClustering(star, verts(4)); c != 0 {
		t.Fatalf("star clustering = %f", c)
	}
}

func TestEvaluateReport(t *testing.T) {
	g := gen.Clique(6)
	r := Evaluate(g, verts(6))
	if r.Vertices != 6 || r.Edges != 15 || !almost(r.Density, 1.0) ||
		r.MinInternalDegree != 5 || !almost(r.AvgClustering, 1.0) || r.Conductance != 0 {
		t.Fatalf("report = %+v", r)
	}
}

// TestTrussBeatsCore reproduces the motivation: a k-truss community is
// denser than the k-core containing it. Attach pendant triangles to a
// clique: the 3-core absorbs the sparse fringe, the 4-truss does not.
func TestTrussBeatsCore(t *testing.T) {
	var edges []graph.Edge
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	// Fringe: cycle of triangles around the clique, all degree 3+ but
	// trussness only 3.
	for i := int32(0); i < 6; i++ {
		a := 5 + 2*i
		b := 5 + 2*i + 1
		c := 5 + (2*i+2)%12
		edges = append(edges, graph.Edge{U: a, V: b}, graph.Edge{U: b, V: c}, graph.Edge{U: a, V: c})
	}
	g, err := graph.FromEdgeList(edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	clique := verts(5)
	everything := verts(g.NumVertices())
	if Density(g, clique) <= Density(g, everything) {
		t.Fatal("clique community not denser than the blob")
	}
}

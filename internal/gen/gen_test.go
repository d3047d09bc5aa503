package gen

import (
	"runtime"
	"slices"
	"testing"

	"equitruss/internal/graph"
)

func TestRNGDeterministicAndSpread(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
	c := newRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if a.next() == c.next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
	// intn stays in range; float64v stays in [0, 1).
	r := newRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.intn(17); v < 0 || v >= 17 {
			t.Fatalf("intn out of range: %d", v)
		}
		if f := r.float64v(); f < 0 || f >= 1 {
			t.Fatalf("float64v out of range: %g", f)
		}
	}
}

func TestRMATDeterministicAndSized(t *testing.T) {
	g1 := RMAT(10, 8, 0.57, 0.19, 0.19, 1)
	g2 := RMAT(10, 8, 0.57, 0.19, 0.19, 1)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed gave %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
	for e := int32(0); e < int32(g1.NumEdges()); e++ {
		if g1.Edge(e) != g2.Edge(e) {
			t.Fatal("same seed gave different edges")
		}
	}
	if g1.NumVertices() != 1024 {
		t.Fatalf("vertices = %d, want 1024", g1.NumVertices())
	}
	// Dedup and self-loop removal shrink the nominal 8*1024 edges.
	if g1.NumEdges() <= 0 || g1.NumEdges() > 8*1024 {
		t.Fatalf("edges = %d out of expected range", g1.NumEdges())
	}
	g3 := RMAT(10, 8, 0.57, 0.19, 0.19, 2)
	if g3.NumEdges() == g1.NumEdges() {
		diff := false
		for e := int32(0); e < int32(g1.NumEdges()); e++ {
			if g1.Edge(e) != g3.Edge(e) {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds gave identical graphs")
		}
	}
}

// TestRMATIndependentOfGOMAXPROCS: a seed names one graph on any core
// count.
func TestRMATIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []graph.Edge
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := RMAT(10, 8, 0.57, 0.19, 0.19, 1).Edges()
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("GOMAXPROCS %d: %d edges, GOMAXPROCS 1 gave %d (or the lists differ)", procs, len(got), len(want))
		}
	}
}

func TestRMATSkew(t *testing.T) {
	// With the standard parameters, R-MAT must produce a hub far above
	// the average degree.
	g := RMAT(12, 8, 0.57, 0.19, 0.19, 3)
	avg := float64(2*g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 5*avg {
		t.Fatalf("max degree %d not skewed vs avg %.1f", g.MaxDegree(), avg)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(500, 2000, 9)
	if g.NumVertices() != 500 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() < 1800 || g.NumEdges() > 2000 {
		t.Fatalf("edges = %d, want ~2000 after dedup", g.NumEdges())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(1000, 3, 11)
	if g.NumVertices() != 1000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Each of the ~997 arrivals adds up to 3 edges plus the seed clique.
	if g.NumEdges() < 2000 || g.NumEdges() > 3003 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	avg := float64(2*g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 4*avg {
		t.Fatalf("preferential attachment produced no hubs: max %d avg %.1f", g.MaxDegree(), avg)
	}
	// Undersized n is bumped to fit the seed clique.
	small := BarabasiAlbert(2, 3, 1)
	if small.NumVertices() != 4 {
		t.Fatalf("small BA vertices = %d, want 4", small.NumVertices())
	}
}

func TestPlantedPartition(t *testing.T) {
	g := PlantedPartition(20, 10, 0.9, 0.5, 13)
	if g.NumVertices() != 200 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Expect roughly 20 * C(10,2) * 0.9 = 810 intra edges plus ~50 inter.
	if g.NumEdges() < 600 || g.NumEdges() > 950 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestFixturesShapes(t *testing.T) {
	fig3 := PaperFigure3()
	if fig3.NumVertices() != 11 || fig3.NumEdges() != 27 {
		t.Fatalf("figure 3 graph: %v, want V=11 E=27", fig3)
	}
	bow := TwoTriangles()
	if bow.NumVertices() != 5 || bow.NumEdges() != 6 {
		t.Fatalf("bowtie: %v", bow)
	}
	strip := TriangleStrip(10)
	if strip.NumEdges() != 17 {
		t.Fatalf("strip edges = %d, want 17", strip.NumEdges())
	}
	bc := BridgedCliques(5)
	if bc.NumVertices() != 10 || bc.NumEdges() != 21 {
		t.Fatalf("bridged cliques: %v", bc)
	}
	sc := SharedEdgeCliquePair(5, 4)
	if sc.NumVertices() != 7 {
		t.Fatalf("shared-edge cliques vertices = %d", sc.NumVertices())
	}
	if !sc.HasEdge(3, 4) {
		t.Fatal("shared edge missing")
	}
	k4 := Clique(4)
	if k4.NumEdges() != 6 {
		t.Fatalf("K4 edges = %d", k4.NumEdges())
	}
	p5 := Path(5)
	if p5.NumEdges() != 4 {
		t.Fatalf("P5 edges = %d", p5.NumEdges())
	}
	c5 := Cycle(5)
	if c5.NumEdges() != 5 {
		t.Fatalf("C5 edges = %d", c5.NumEdges())
	}
}

func TestDatasetLookup(t *testing.T) {
	for _, name := range []string{"amazon-sim", "Amazon", "ORKUT", "dblp"} {
		if _, err := FindDataset(name); err != nil {
			t.Fatalf("FindDataset(%q): %v", name, err)
		}
	}
	if _, err := FindDataset("nonexistent"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestDatasetGenerateSmall(t *testing.T) {
	for _, spec := range Datasets {
		if spec.Name == "friendster-sim" {
			continue // too big for unit tests
		}
		g := spec.Generate(0.1)
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s at 0.1 produced %v", spec.Name, g)
		}
		// Deterministic.
		g2 := spec.Generate(0.1)
		if g.NumEdges() != g2.NumEdges() {
			t.Fatalf("%s not deterministic", spec.Name)
		}
	}
}

func TestDatasetScaleFactorGrows(t *testing.T) {
	spec, _ := FindDataset("youtube-sim")
	small := spec.Generate(0.25)
	big := spec.Generate(1.0)
	if big.NumEdges() <= small.NumEdges() {
		t.Fatalf("scale 1.0 (%d edges) not larger than 0.25 (%d)", big.NumEdges(), small.NumEdges())
	}
}

// noTrianglesIn asserts helper fixtures that should be triangle-free.
func noTrianglesIn(t *testing.T, g *graph.Graph, name string) {
	t.Helper()
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		ed := g.Edge(e)
		if g.CommonNeighborCount(ed.U, ed.V) != 0 {
			t.Fatalf("%s has a triangle at edge %v", name, ed)
		}
	}
}

func TestPathAndLargeCycleTriangleFree(t *testing.T) {
	noTrianglesIn(t, Path(20), "path")
	noTrianglesIn(t, Cycle(20), "cycle")
}

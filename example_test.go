package equitruss_test

import (
	"fmt"

	"equitruss"
)

// ExampleBuildIndex builds an index over two cliques sharing a vertex and
// lists the overlapping communities of the shared vertex.
func ExampleBuildIndex() {
	edges := []equitruss.Edge{
		// clique A: 0-1-2-3
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		// clique B: 3-4-5-6
		{U: 3, V: 4}, {U: 3, V: 5}, {U: 3, V: 6},
		{U: 4, V: 5}, {U: 4, V: 6}, {U: 5, V: 6},
	}
	g, _ := equitruss.NewGraph(edges, 0)
	idx, _ := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
	for _, c := range idx.Communities(3, 4) {
		fmt.Println(c.Vertices())
	}
	// Output:
	// [0 1 2 3]
	// [3 4 5 6]
}

// ExampleTrussness decomposes a triangle with a pendant edge.
func ExampleTrussness() {
	g, _ := equitruss.NewGraph([]equitruss.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3},
	}, 0)
	tau := equitruss.Trussness(g, 1)
	for eid, k := range tau {
		e := g.Edge(int32(eid))
		fmt.Printf("(%d,%d): %d\n", e.U, e.V, k)
	}
	// Output:
	// (0,1): 3
	// (0,2): 3
	// (1,2): 3
	// (2,3): 2
}

// ExampleDynamicGraph shows exact incremental maintenance: closing a
// triangle raises trussness, breaking it lowers it back.
func ExampleDynamicGraph() {
	g, _ := equitruss.NewGraph([]equitruss.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, 0)
	dg := equitruss.NewDynamicFromGraph(g, 1)
	dg.InsertEdge(0, 2)
	k, _ := dg.Trussness(0, 1)
	fmt.Println("closed:", k)
	dg.DeleteEdge(0, 2)
	k, _ = dg.Trussness(0, 1)
	fmt.Println("broken:", k)
	// Output:
	// closed: 3
	// broken: 2
}

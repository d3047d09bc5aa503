// Package metrics computes the cohesion statistics used to argue for
// k-truss communities over k-core and clique alternatives (paper §1–2):
// density, conductance, average clustering, and minimum internal degree of
// a vertex set or edge-set community.
package metrics

import (
	"sort"

	"equitruss/internal/graph"
)

// Density returns |E(S)| / (|S|·(|S|−1)/2) for vertex set S: 1.0 for a
// clique, → 0 for sparse sets. Sets smaller than 2 have density 0.
func Density(g *graph.Graph, vertices []int32) float64 {
	n := int64(len(vertices))
	if n < 2 {
		return 0
	}
	internal := internalEdges(g, vertices)
	return float64(internal) / (float64(n) * float64(n-1) / 2)
}

// internalEdges counts edges with both endpoints in the set.
func internalEdges(g *graph.Graph, vertices []int32) int64 {
	in := memberSet(vertices)
	var count int64
	for _, v := range vertices {
		for _, w := range g.Neighbors(v) {
			if w > v && in[w] {
				count++
			}
		}
	}
	return count
}

func memberSet(vertices []int32) map[int32]bool {
	in := make(map[int32]bool, len(vertices))
	for _, v := range vertices {
		in[v] = true
	}
	return in
}

// Conductance returns cut(S) / min(vol(S), vol(V∖S)): low conductance
// means a well-separated community. Returns 0 for empty or full sets with
// zero volume on either side.
func Conductance(g *graph.Graph, vertices []int32) float64 {
	in := memberSet(vertices)
	var cut, volIn int64
	for _, v := range vertices {
		for _, w := range g.Neighbors(v) {
			volIn++
			if !in[w] {
				cut++
			}
		}
	}
	volOut := 2*g.NumEdges() - volIn
	den := volIn
	if volOut < den {
		den = volOut
	}
	if den == 0 {
		return 0
	}
	return float64(cut) / float64(den)
}

// MinInternalDegree returns the smallest number of in-set neighbors over
// the set's members — the k-core style cohesion floor (a k-truss community
// guarantees at least k−1).
func MinInternalDegree(g *graph.Graph, vertices []int32) int32 {
	if len(vertices) == 0 {
		return 0
	}
	in := memberSet(vertices)
	min := int32(-1)
	for _, v := range vertices {
		var d int32
		for _, w := range g.Neighbors(v) {
			if in[w] {
				d++
			}
		}
		if min < 0 || d < min {
			min = d
		}
	}
	return min
}

// AverageClustering returns the mean local clustering coefficient over the
// set's members (neighborhoods restricted to the set).
func AverageClustering(g *graph.Graph, vertices []int32) float64 {
	if len(vertices) == 0 {
		return 0
	}
	in := memberSet(vertices)
	var total float64
	for _, v := range vertices {
		var nbrs []int32
		for _, w := range g.Neighbors(v) {
			if in[w] {
				nbrs = append(nbrs, w)
			}
		}
		d := len(nbrs)
		if d < 2 {
			continue
		}
		var closed int
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(nbrs[i], nbrs[j]) {
					closed++
				}
			}
		}
		total += float64(closed) / (float64(d) * float64(d-1) / 2)
	}
	return total / float64(len(vertices))
}

// Report bundles the per-community metrics for presentation.
type Report struct {
	Vertices          int
	Edges             int64
	Density           float64
	Conductance       float64
	MinInternalDegree int32
	AvgClustering     float64
}

// Evaluate computes the full report for a vertex set.
func Evaluate(g *graph.Graph, vertices []int32) Report {
	sorted := append([]int32(nil), vertices...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return Report{
		Vertices:          len(sorted),
		Edges:             internalEdges(g, sorted),
		Density:           Density(g, sorted),
		Conductance:       Conductance(g, sorted),
		MinInternalDegree: MinInternalDegree(g, sorted),
		AvgClustering:     AverageClustering(g, sorted),
	}
}

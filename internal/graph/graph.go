// Package graph provides the compressed-sparse-row (CSR) representation of
// simple undirected graphs that the whole EquiTruss pipeline runs on.
//
// The layout mirrors the GAP Benchmark Suite's CSRGraph, which the paper's
// C-Optimal variant adopts: per-vertex sorted neighbor lists plus, aligned
// with every adjacency slot, the ID of the undirected edge the slot belongs
// to. Edge IDs are dense in [0, m) and index canonical Edge{U < V} records,
// so per-edge state (support, trussness, component) lives in flat arrays.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a canonical undirected edge with U < V.
type Edge struct {
	U, V int32
}

// Canonical returns e with endpoints ordered so U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// PackPair packs an unordered int32 pair into one canonical (low, high)
// word: the key of every edge map, superedge set and pair sort in the
// pipeline. Packed words order like their (low, high) pairs.
func PackPair(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// UnpackPair splits a PackPair word into its (low, high) halves.
func UnpackPair(p uint64) (lo, hi int32) { return int32(p >> 32), int32(uint32(p)) }

// Graph is an immutable simple undirected graph in CSR form.
type Graph struct {
	offsets []int64 // len n+1; offsets[v]..offsets[v+1] index adj/adjEID
	adj     []int32 // len 2m; neighbors, sorted ascending per vertex
	adjEID  []int32 // len 2m; undirected edge ID of each adjacency slot
	edges   []Edge  // len m; edges[eid] is the canonical endpoint pair
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int32 { return int32(len(g.offsets) - 1) }

// NumEdges returns |E| (undirected edge count).
func (g *Graph) NumEdges() int64 { return int64(len(g.edges)) }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int32 {
	return int32(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns v's sorted neighbor list. The slice aliases internal
// storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// IncidentEIDs returns, aligned with Neighbors(v), the undirected edge IDs
// of v's incident edges. The slice aliases internal storage.
func (g *Graph) IncidentEIDs(v int32) []int32 {
	return g.adjEID[g.offsets[v]:g.offsets[v+1]]
}

// Edge returns the canonical endpoints of edge eid.
func (g *Graph) Edge(eid int32) Edge { return g.edges[eid] }

// Edges returns the canonical edge array indexed by edge ID. The slice
// aliases internal storage and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgeID returns the undirected edge ID of (u, v), or -1 if the edge does
// not exist. It binary-searches the smaller adjacency list.
func (g *Graph) EdgeID(u, v int32) int32 {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	if i < len(nbrs) && nbrs[i] == v {
		return g.IncidentEIDs(u)[i]
	}
	return -1
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int32) bool { return g.EdgeID(u, v) >= 0 }

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int32 {
	var max int32
	for v := int32(0); v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{V=%d, E=%d}", g.NumVertices(), g.NumEdges())
}

// ForEachTriangleOf invokes fn(w, e1, e2) for every vertex w that closes a
// triangle with edge eid = (u, v), passing the edge IDs e1 = (u, w) and
// e2 = (v, w). Enumeration is a sorted-merge intersection of N(u) and N(v).
// fn returning false stops the enumeration early.
//
// This is the k-triangle-connectivity neighborhood generator used by every
// supernode builder (Algorithm 2 line 11: "compute the list W of common
// neighbors that make triangles with e").
func (g *Graph) ForEachTriangleOf(eid int32, fn func(w, e1, e2 int32) bool) {
	e := g.edges[eid]
	u, v := e.U, e.V
	nu, nv := g.Neighbors(u), g.Neighbors(v)
	eu, ev := g.IncidentEIDs(u), g.IncidentEIDs(v)
	i, j := 0, 0
	for i < len(nu) && j < len(nv) {
		a, b := nu[i], nv[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			if !fn(a, eu[i], ev[j]) {
				return
			}
			i++
			j++
		}
	}
}

// CommonNeighborCount returns |N(u) ∩ N(v)| via sorted-merge intersection.
// For an edge (u, v) this is exactly the edge's support.
func (g *Graph) CommonNeighborCount(u, v int32) int32 {
	nu, nv := g.Neighbors(u), g.Neighbors(v)
	var count int32
	i, j := 0, 0
	for i < len(nu) && j < len(nv) {
		a, b := nu[i], nv[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

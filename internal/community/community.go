// Package community answers the local (goal-oriented) community-search
// queries that the EquiTruss index exists for: given a query vertex q and a
// cohesion level k, return every k-truss community containing q — possibly
// several, and possibly overlapping with other vertices' communities.
//
// Two query paths are provided: the indexed path that traverses the summary
// graph (the whole point of the paper), and a direct from-scratch BFS over
// edges that serves as the correctness oracle in tests.
package community

import (
	"sort"
	"sync"
	"sync/atomic"

	"equitruss/internal/core"
	"equitruss/internal/ds"
	"equitruss/internal/graph"
)

// Community is one k-truss community: a set of edge IDs of the original
// graph. Vertices returns the vertex set on demand.
type Community struct {
	K     int32   // the queried cohesion level
	Edges []int32 // member edge IDs, ascending
	g     *graph.Graph
}

// Vertices returns the sorted distinct vertices spanned by the community.
func (c *Community) Vertices() []int32 {
	return appendEdgeVertices(nil, c.g, c.Edges)
}

// Subgraph materializes the community as its own graph (original vertex
// IDs preserved).
func (c *Community) Subgraph() (*graph.Graph, error) {
	member := make(map[int32]struct{}, len(c.Edges))
	for _, e := range c.Edges {
		member[e] = struct{}{}
	}
	return c.g.InducedByEdges(func(eid int32) bool {
		_, ok := member[eid]
		return ok
	})
}

// Index couples the summary graph with the graph whose incidence lists
// seed queries, i.e. the complete query-ready EquiTruss index. A vertex's
// seed supernodes are read off G.IncidentEIDs(v) → SG.EdgeToSN — the
// incidence CSR already is the vertex→supernode mapping, so nothing is
// materialized beside it.
type Index struct {
	G  *graph.Graph
	SG *core.SummaryGraph

	// Lazily built k-level community hierarchy: hier is the published
	// handle read lock-free on the query hot path, hierMu serializes the
	// one-time build so concurrent first queries construct it exactly once.
	hierMu sync.Mutex
	hier   atomic.Pointer[Hierarchy]
}

// NewIndex wraps the summary graph as a query-ready index in O(1).
func NewIndex(g *graph.Graph, sg *core.SummaryGraph) *Index {
	return &Index{G: g, SG: sg}
}

// SupernodesOf returns the distinct supernodes containing an edge incident
// to v, O(deg(v)) per call. The hierarchy-backed queries do not need the
// distinct set — they dedupe by forest node and walk the incidence list
// directly — so this serves the BFS oracles and CommunitySupernodes.
func (idx *Index) SupernodesOf(v int32) []int32 {
	return appendDistinctSupernodes(nil, idx.G, idx.SG, v)
}

// appendDistinctSupernodes appends the distinct supernodes of v's incident
// edges to dst. Dedupe is linear-scan for the common small case and falls
// back to a set for hub vertices, keeping the cost O(deg(v)) rather than
// quadratic in the number of distinct supernodes.
func appendDistinctSupernodes(dst []int32, g *graph.Graph, sg *core.SummaryGraph, v int32) []int32 {
	const linearMax = 48
	start := len(dst)
	var set map[int32]struct{}
	for _, e := range g.IncidentEIDs(v) {
		sn := sg.EdgeToSN[e]
		if sn == core.NoSupernode {
			continue
		}
		if set != nil {
			if _, dup := set[sn]; dup {
				continue
			}
			set[sn] = struct{}{}
			dst = append(dst, sn)
			continue
		}
		dup := false
		for _, s := range dst[start:] {
			if s == sn {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		dst = append(dst, sn)
		if len(dst)-start > linearMax {
			set = make(map[int32]struct{}, 2*(len(dst)-start))
			for _, s := range dst[start:] {
				set[s] = struct{}{}
			}
		}
	}
	return dst
}

// CommunitiesBFS returns every k-truss community containing vertex v by
// traversing the summary graph: seed supernodes are v's incident supernodes
// with trussness >= k; each seed's connected region of the summary graph
// restricted to supernodes with trussness >= k is one community (distinct
// seeds falling in one region merge into the same community). This is the
// original indexed path, kept as the differential oracle for the
// hierarchy-backed Communities — it allocates an O(#supernodes) visited
// bitset per call, which the hierarchy path avoids.
func (idx *Index) CommunitiesBFS(v int32, k int32) []*Community {
	if k < core.MinK {
		k = core.MinK
	}
	sg := idx.SG
	visited := ds.NewBitset(int(sg.NumSupernodes()))
	var result []*Community
	for _, seed := range idx.SupernodesOf(v) {
		if sg.K[seed] < k || visited.Get(int(seed)) {
			continue
		}
		// BFS over qualifying supernodes; the queue ends up holding the
		// whole region, whose member edges are then gathered in one pass.
		queue := []int32{seed}
		visited.Set(int(seed))
		size := int64(0)
		for i := 0; i < len(queue); i++ {
			s := queue[i]
			size += sg.SupernodeEdgeCount(s)
			for _, nb := range sg.SupernodeNeighbors(s) {
				if sg.K[nb] >= k && !visited.Get(int(nb)) {
					visited.Set(int(nb))
					queue = append(queue, nb)
				}
			}
		}
		members := make([]int32, 0, size)
		for _, s := range queue {
			members = append(members, sg.SupernodeEdges(s)...)
		}
		members = appendSortedDistinct(members[:0], members, int(idx.G.NumEdges()))
		result = append(result, &Community{K: k, Edges: members, g: idx.G})
	}
	return result
}

// MaxK returns the highest trussness of any supernode containing an edge
// incident to v — the strongest community the vertex participates in.
func (idx *Index) MaxK(v int32) int32 {
	best := int32(0)
	for _, e := range idx.G.IncidentEIDs(v) {
		if sn := idx.SG.EdgeToSN[e]; sn != core.NoSupernode && idx.SG.K[sn] > best {
			best = idx.SG.K[sn]
		}
	}
	return best
}

// MembershipBFS computes the overlapping community profile of v by running
// one summary-graph BFS per level — the oracle form of Membership.
func (idx *Index) MembershipBFS(v int32) map[int32]int {
	out := make(map[int32]int)
	maxK := idx.MaxK(v)
	for k := int32(core.MinK); k <= maxK; k++ {
		if cs := idx.CommunitiesBFS(v, k); len(cs) > 0 {
			out[k] = len(cs)
		}
	}
	return out
}

// DirectCommunities answers the same query with no index: BFS over the
// original graph's edges, expanding through triangles entirely inside the
// k-truss (all three edges τ >= k). It is the ground-truth oracle used to
// validate the indexed path and the from-scratch comparator in benchmarks.
func DirectCommunities(g *graph.Graph, tau []int32, v int32, k int32) []*Community {
	if k < core.MinK {
		k = core.MinK
	}
	m := int(g.NumEdges())
	visited := ds.NewBitset(m)
	var result []*Community
	for _, seed := range g.IncidentEIDs(v) {
		if tau[seed] < k || visited.Get(int(seed)) {
			continue
		}
		var members []int32
		stack := []int32{seed}
		visited.Set(int(seed))
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, e)
			g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
				if tau[e1] < k || tau[e2] < k {
					return true
				}
				if !visited.Get(int(e1)) {
					visited.Set(int(e1))
					stack = append(stack, e1)
				}
				if !visited.Get(int(e2)) {
					visited.Set(int(e2))
					stack = append(stack, e2)
				}
				return true
			})
		}
		members = appendSortedDistinct(members[:0], members, m)
		result = append(result, &Community{K: k, Edges: members, g: g})
	}
	return result
}

// CanonicalizeCommunities sorts a community list by first member edge so
// that indexed and direct answers compare deterministically.
func CanonicalizeCommunities(cs []*Community) []*Community {
	sort.Slice(cs, func(i, j int) bool {
		if len(cs[i].Edges) == 0 || len(cs[j].Edges) == 0 {
			return len(cs[i].Edges) < len(cs[j].Edges)
		}
		return cs[i].Edges[0] < cs[j].Edges[0]
	})
	return cs
}

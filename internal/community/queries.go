package community

import (
	"cmp"
	"context"
	"slices"

	"equitruss/internal/core"
	"equitruss/internal/obs"
)

// Hierarchy returns the index's k-level community hierarchy, building it on
// first use. The published handle is read lock-free, so steady-state
// queries pay one atomic load; only the one-time build takes the mutex, and
// concurrent first queries construct it exactly once.
func (idx *Index) Hierarchy() *Hierarchy {
	if h := idx.hier.Load(); h != nil {
		return h
	}
	idx.hierMu.Lock()
	defer idx.hierMu.Unlock()
	if h := idx.hier.Load(); h != nil {
		return h
	}
	h, err := buildHierarchy(nil, idx, 0, nil)
	if err != nil {
		// Unreachable: a build without a context cannot fail.
		panic("community: " + err.Error())
	}
	idx.hier.Store(h)
	return h
}

// PrepareHierarchy builds the hierarchy eagerly with the given parallelism,
// cancellation, and tracing — the knob NewIndex's PrecomputeHierarchy option
// and the server's startup path use. Idempotent: an already-built hierarchy
// is returned as-is.
func (idx *Index) PrepareHierarchy(ctx context.Context, threads int, tr *obs.Trace) (*Hierarchy, error) {
	if h := idx.hier.Load(); h != nil {
		return h, nil
	}
	idx.hierMu.Lock()
	defer idx.hierMu.Unlock()
	if h := idx.hier.Load(); h != nil {
		return h, nil
	}
	h, err := buildHierarchy(ctx, idx, threads, tr)
	if err != nil {
		return nil, err
	}
	idx.hier.Store(h)
	return h, nil
}

// Ref is a compact reference to one k-truss community: its forest node plus
// the queried level. Sizes (edge and vertex counts) read precomputed
// per-node totals without touching the member edges; the edge list is
// materialized only when Community or Edges is called, and the vertex list
// is read from the node's per-epoch memo by AppendVertices. Refs are small
// immutable values that stay valid for the life of their epoch.
type Ref struct {
	K    int32 // normalized query level
	node int32
	h    *Hierarchy
	idx  *Index
}

// NumEdges returns the community's member-edge count in O(1).
func (r Ref) NumEdges() int64 { return r.h.edges[r.node] }

// NumVertices returns the community's distinct-vertex count in O(1).
func (r Ref) NumVertices() int64 { return r.h.verts[r.node] }

// MinEdge returns the community's smallest member edge ID — the canonical
// ordering key used by CanonicalizeCommunities.
func (r Ref) MinEdge() int32 { return r.h.nodeMin[r.node] }

// Edges materializes the member edge IDs, ascending. Cost is proportional
// to the answer.
func (r Ref) Edges() []int32 {
	out := r.h.appendCommunityEdges(r.idx.SG, r.node, make([]int32, 0, r.h.edges[r.node]))
	return appendSortedDistinct(out[:0], out, int(r.idx.G.NumEdges()))
}

// AppendVertices appends the community's sorted distinct vertices to dst.
// The list is built on the first read of its hierarchy node and memoised
// there for the life of the hierarchy, i.e. of the published epoch; every
// later call is one O(answer) copy that allocates nothing when dst has
// room.
func (r Ref) AppendVertices(dst []int32) []int32 {
	return append(dst, r.h.vertices(r.idx, r.node)...)
}

// Vertices returns the community's sorted distinct vertices as a fresh
// copy the caller owns.
func (r Ref) Vertices() []int32 { return r.AppendVertices(nil) }

// Community materializes the referenced community in the classic form.
func (r Ref) Community() *Community {
	return &Community{K: r.K, Edges: r.Edges(), g: r.idx.G}
}

// CommunityRefs returns compact references to every k-truss community
// containing vertex v, answered from the hierarchy in O(deg(v) + answer)
// time and O(answer) allocations: the seed supernodes are read straight off
// v's incident edges (a run of edges in one supernode is walked once), each
// one's community node is found by an allocation-free leaf-to-root walk, and
// the handful of resulting nodes are deduplicated by linear scan — no
// distinct-supernode set and no visited structure over the supernodes.
func (idx *Index) CommunityRefs(v int32, k int32) []Ref {
	if k < core.MinK {
		k = core.MinK
	}
	h := idx.Hierarchy()
	cHierQueryHits.Add(1)
	var refs []Ref
	prev := core.NoSupernode
	for _, e := range idx.G.IncidentEIDs(v) {
		sn := idx.SG.EdgeToSN[e]
		if sn == prev || sn == core.NoSupernode || idx.SG.K[sn] < k {
			continue
		}
		prev = sn
		node := h.nodeAt(sn, k)
		dup := false
		for _, r := range refs {
			if r.node == node {
				dup = true
				break
			}
		}
		if !dup {
			refs = append(refs, Ref{K: k, node: node, h: h, idx: idx})
		}
	}
	slices.SortFunc(refs, func(a, b Ref) int { return cmp.Compare(h.nodeMin[a.node], h.nodeMin[b.node]) })
	return refs
}

// Communities returns every k-truss community containing vertex v, answered
// from the precomputed hierarchy and materialized eagerly (Edges filled,
// ascending) for API compatibility. Callers that only need membership or
// sizes should use CommunityRefs, which skips the materialization.
func (idx *Index) Communities(v int32, k int32) []*Community {
	refs := idx.CommunityRefs(v, k)
	if len(refs) == 0 {
		return nil
	}
	out := make([]*Community, len(refs))
	for i, r := range refs {
		out[i] = r.Community()
	}
	return out
}

// AllCommunityRefs returns compact references to every k-truss community in
// the graph, straight from the hierarchy's per-level index — O(answer),
// already in canonical (smallest-member-edge) order.
func (idx *Index) AllCommunityRefs(k int32) []Ref {
	if k < core.MinK {
		k = core.MinK
	}
	h := idx.Hierarchy()
	cHierQueryHits.Add(1)
	if k > h.kmax {
		return nil
	}
	lvl := int(k) - core.MinK
	nodes := h.levelNodes[h.levelOff[lvl]:h.levelOff[lvl+1]]
	refs := make([]Ref, len(nodes))
	for i, node := range nodes {
		refs[i] = Ref{K: k, node: node, h: h, idx: idx}
	}
	return refs
}

// AllCommunities enumerates every k-truss community at level k from the
// hierarchy, materialized eagerly in canonical order.
func (idx *Index) AllCommunities(k int32) []*Community {
	refs := idx.AllCommunityRefs(k)
	out := make([]*Community, 0, len(refs))
	for _, r := range refs {
		out = append(out, r.Community())
	}
	return out
}

// Membership returns, for each k from 3 to MaxK(v), the number of distinct
// k-truss communities containing v — the "overlapping community profile" of
// the vertex, answered from the hierarchy in one pass over v's leaf-to-root
// paths instead of one summary-graph BFS per level.
//
// A forest node u on the path of an incident supernode sn is v's community
// at exactly the levels of u's span (its levels never exceed K[sn], since
// sn's leaf starts at K[sn] and levels only decrease toward the root), so
// each distinct path node contributes one community to every level it
// spans. Paths that merge stay merged, so each walk stops at the first
// already-seen node.
func (idx *Index) Membership(v int32) map[int32]int {
	h := idx.Hierarchy()
	cHierQueryHits.Add(1)
	out := make(map[int32]int)
	seen := make(map[int32]struct{})
	prev := core.NoSupernode
	for _, e := range idx.G.IncidentEIDs(v) {
		sn := idx.SG.EdgeToSN[e]
		if sn == prev || sn == core.NoSupernode {
			continue
		}
		prev = sn
		for node := h.snLeaf[sn]; node >= 0; node = h.parent[node] {
			if _, ok := seen[node]; ok {
				break
			}
			seen[node] = struct{}{}
			lo, hi := h.spanOf(node)
			for k := lo; k <= hi; k++ {
				out[k]++
			}
		}
	}
	return out
}

// CommunityCount returns, for each k from 3 to kmax, the number of k-truss
// communities — read directly off the hierarchy's level index in O(kmax).
func (idx *Index) CommunityCount() map[int32]int {
	h := idx.Hierarchy()
	cHierQueryHits.Add(1)
	out := make(map[int32]int)
	for k := int32(core.MinK); k <= h.kmax; k++ {
		lvl := int(k) - core.MinK
		if n := h.levelOff[lvl+1] - h.levelOff[lvl]; n > 0 {
			out[k] = int(n)
		}
	}
	return out
}

// CommonCommunities returns the k-truss communities containing EVERY vertex
// of the query set, intersecting the vertices' community-node sets from the
// hierarchy — no vertex-set materialization or binary searches.
func (idx *Index) CommonCommunities(vertices []int32, k int32) []*Community {
	if len(vertices) == 0 {
		return nil
	}
	refs := idx.CommunityRefs(vertices[0], k)
	for _, v := range vertices[1:] {
		if len(refs) == 0 {
			return nil
		}
		other := idx.CommunityRefs(v, k)
		kept := refs[:0]
		for _, r := range refs {
			for _, o := range other {
				if o.node == r.node {
					kept = append(kept, r)
					break
				}
			}
		}
		refs = kept
	}
	if len(refs) == 0 {
		return nil
	}
	out := make([]*Community, len(refs))
	for i, r := range refs {
		out[i] = r.Community()
	}
	return out
}

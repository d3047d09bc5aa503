package community

import (
	"sync/atomic"

	"equitruss/internal/obs"
)

var (
	cMemoFills = obs.GetCounter("hierarchy_vertex_memo_fills",
		"community vertex lists built and memoised on their hierarchy node")
	cMemoInt32s = obs.GetCounter("hierarchy_vertex_memo_int32s",
		"vertex IDs stored by community vertex-list memo fills")
	cMemoOverCap = obs.GetCounter("hierarchy_vertex_memo_over_cap",
		"community vertex lists built but not memoised because the hierarchy's 2·m budget was spent")
)

// vertexMemo holds each hierarchy node's sorted distinct vertex list, built
// on the node's first read. It hangs off one Hierarchy, and every publish
// builds a new Hierarchy, so a memo never outlives its epoch and needs no
// invalidation.
//
// Its size is bounded by a constant rule: one hierarchy memoises at most
// 2·m int32s, the graph's own endpoint count. A full memo never reaches
// that: a vertex v lies in a node created at level k only through an edge
// with at least k-2 triangles inside the node, so v has at least k-1 edges
// there; the nodes containing v form a laminar family, each leaf of which
// contributes at most k-2 nodes on its path to the root, so v lies in fewer
// nodes than its degree and Σ verts < 2·m. The budget is the guard that
// keeps it so: a fill past it is returned to the caller but not stored.
type vertexMemo struct {
	lists  []atomic.Pointer[[]int32] // per node; nil until filled
	budget int64                     // int32s the memo may hold
	used   atomic.Int64              // int32s stored or reserved by fills
}

// vertexMemo returns the hierarchy's memo table, allocating it on first use
// with the given budget — after serving starts, never at build time.
func (h *Hierarchy) vertexMemo(budget int64) *vertexMemo {
	if m := h.vmemo.Load(); m != nil {
		return m
	}
	m := &vertexMemo{lists: make([]atomic.Pointer[[]int32], len(h.nodeK)), budget: budget}
	if h.vmemo.CompareAndSwap(nil, m) {
		return m
	}
	return h.vmemo.Load()
}

// vertices returns node's sorted distinct vertices. The slice may be the
// memo's own and must not be modified; callers outside the package get a
// copy through Ref.AppendVertices. Fills are lock-free: concurrent first
// readers each build the list, one CAS publishes it, and the losers take
// the published list and drop their own.
func (h *Hierarchy) vertices(idx *Index, node int32) []int32 {
	m := h.vertexMemo(2 * int64(idx.G.NumEdges()))
	slot := &m.lists[node]
	if p := slot.Load(); p != nil {
		return *p
	}
	edges := h.appendCommunityEdges(idx.SG, node, make([]int32, 0, h.edges[node]))
	vs := appendEdgeVertices(make([]int32, 0, h.verts[node]), idx.G, edges)
	n := int64(len(vs))
	if m.used.Add(n) > m.budget {
		m.used.Add(-n)
		cMemoOverCap.Inc()
		return vs
	}
	if !slot.CompareAndSwap(nil, &vs) {
		m.used.Add(-n)
		return *slot.Load()
	}
	cMemoFills.Inc()
	cMemoInt32s.Add(n)
	return vs
}

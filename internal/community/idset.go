package community

import (
	"math/bits"
	"slices"

	"equitruss/internal/graph"
)

// appendSortedDistinct appends the distinct values of ids to dst in
// ascending order. Every ID must lie in [0, universe). ids is used as
// scratch and its contents are clobbered; dst may alias ids[:0], which is
// how callers project in place.
//
// Dense sets (len(ids) ≥ universe/64) are marked in a bitset and scanned
// out in O(len(ids) + universe/64); sparse ones run slices.Sort and
// slices.Compact. Either way no map and no reflection-based swapper is
// involved — this is the edge → vertex projection and the member-edge sort
// of every community path, the hierarchy's and the oracles' alike.
func appendSortedDistinct(dst, ids []int32, universe int) []int32 {
	if len(ids) == 0 {
		return dst
	}
	if len(ids) < universe/64 {
		slices.Sort(ids)
		return append(dst, slices.Compact(ids)...)
	}
	set := make([]uint64, (universe+63)/64)
	for _, id := range ids {
		set[id>>6] |= 1 << (uint32(id) & 63)
	}
	return appendMembers(dst, set)
}

// appendEdgeVertices appends the sorted distinct endpoints of edges to dst.
// The dense case marks the endpoints straight into the bitset, skipping the
// endpoint list.
func appendEdgeVertices(dst []int32, g *graph.Graph, edges []int32) []int32 {
	n := int(g.NumVertices())
	if 2*len(edges) < n/64 {
		ends := make([]int32, 0, 2*len(edges))
		for _, e := range edges {
			ed := g.Edge(e)
			ends = append(ends, ed.U, ed.V)
		}
		return appendSortedDistinct(dst, ends, n)
	}
	set := make([]uint64, (n+63)/64)
	for _, e := range edges {
		ed := g.Edge(e)
		set[ed.U>>6] |= 1 << (uint32(ed.U) & 63)
		set[ed.V>>6] |= 1 << (uint32(ed.V) & 63)
	}
	return appendMembers(dst, set)
}

// appendMembers appends the positions of set's one bits to dst, ascending.
func appendMembers(dst []int32, set []uint64) []int32 {
	for w, word := range set {
		for word != 0 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

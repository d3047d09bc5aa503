package core

import (
	"slices"

	"equitruss/internal/graph"
)

// Assemble builds the SummaryGraph CSR from a finished supernode labelling
// and its superedges, and is where every builder and the incremental repair
// end. edgeToSN[e] is edge e's dense supernode ID (NoSupernode for τ=2
// edges), k[s] the trussness of supernode s, and pairs holds each superedge
// once as a graph.PackPair of dense IDs. Members are listed in ascending
// edge ID and each supernode's neighbours in pairs order, so the index
// bytes depend on nothing but the three inputs. The slices are adopted, not
// copied.
func Assemble(tau, edgeToSN, k []int32, pairs []uint64) *SummaryGraph {
	s := len(k)
	edgeOff, edgeList := GroupByKey(edgeToSN, s)
	adjOff := make([]int64, s+1)
	for _, p := range pairs {
		a, b := graph.UnpackPair(p)
		adjOff[a+1]++
		adjOff[b+1]++
	}
	for i := 0; i < s; i++ {
		adjOff[i+1] += adjOff[i]
	}
	adj := make([]int32, adjOff[s])
	cur := make([]int64, s)
	copy(cur, adjOff[:s])
	for _, p := range pairs {
		a, b := graph.UnpackPair(p)
		adj[cur[a]] = b
		cur[a]++
		adj[cur[b]] = a
		cur[b]++
	}
	return &SummaryGraph{
		Tau:         tau,
		EdgeToSN:    edgeToSN,
		K:           k,
		EdgeOffsets: edgeOff,
		EdgeList:    edgeList,
		AdjOffsets:  adjOff,
		Adj:         adj,
	}
}

// GroupByKey inverts key — item i belongs to group key[i] in [0, n), or to
// none when key[i] < 0 — into CSR form with a counting sort: the items of
// group g are list[off[g]:off[g+1]], ascending.
func GroupByKey(key []int32, n int) (off []int64, list []int32) {
	off = make([]int64, n+1)
	for _, g := range key {
		if g >= 0 {
			off[g+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	list = make([]int32, off[n])
	cur := make([]int64, n)
	copy(cur, off[:n])
	for i, g := range key {
		if g >= 0 {
			list[cur[g]] = int32(i)
			cur[g]++
		}
	}
	return off, list
}

// SortDedupe sorts packed pairs ascending and drops repeats, in place; it
// returns the shortened slice.
func SortDedupe(pairs []uint64) []uint64 {
	slices.Sort(pairs)
	return slices.Compact(pairs)
}

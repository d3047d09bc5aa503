package community

import (
	"sort"

	"equitruss/internal/core"
	"equitruss/internal/ds"
)

// CommonCommunitiesBFS is the oracle form of CommonCommunities: it takes
// the communities of the first vertex via the BFS path, then filters by
// vertex-set membership of the rest.
func (idx *Index) CommonCommunitiesBFS(vertices []int32, k int32) []*Community {
	if len(vertices) == 0 {
		return nil
	}
	if k < core.MinK {
		k = core.MinK
	}
	// Vertex membership test: the community contains an edge incident to v,
	// i.e. v appears in the community's vertex set.
	candidates := idx.CommunitiesBFS(vertices[0], k)
	if len(candidates) == 0 {
		return nil
	}
	var out []*Community
	for _, c := range candidates {
		verts := c.Vertices()
		all := true
		for _, v := range vertices[1:] {
			i := sort.Search(len(verts), func(i int) bool { return verts[i] >= v })
			if i >= len(verts) || verts[i] != v {
				all = false
				break
			}
		}
		if all {
			out = append(out, c)
		}
	}
	return out
}

// CommunitySupernodes returns, for diagnostics and visualization, the
// supernode IDs whose union forms each community of vertex v at level k —
// the supergraph-level view of the answer.
func (idx *Index) CommunitySupernodes(v int32, k int32) [][]int32 {
	if k < core.MinK {
		k = core.MinK
	}
	sg := idx.SG
	visited := ds.NewBitset(int(sg.NumSupernodes()))
	var result [][]int32
	for _, seed := range idx.SupernodesOf(v) {
		if sg.K[seed] < k || visited.Get(int(seed)) {
			continue
		}
		var sns []int32
		stack := []int32{seed}
		visited.Set(int(seed))
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sns = append(sns, s)
			for _, nb := range sg.SupernodeNeighbors(s) {
				if sg.K[nb] >= k && !visited.Get(int(nb)) {
					visited.Set(int(nb))
					stack = append(stack, nb)
				}
			}
		}
		sns = appendSortedDistinct(sns[:0], sns, int(sg.NumSupernodes()))
		result = append(result, sns)
	}
	return result
}

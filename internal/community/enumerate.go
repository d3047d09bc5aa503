package community

import (
	"equitruss/internal/core"
	"equitruss/internal/ds"
)

// AllCommunitiesBFS enumerates every k-truss community by running connected
// components over the supergraph restricted to supernodes with trussness >=
// k — the original implementation, kept as the differential oracle for the
// hierarchy-backed AllCommunities.
func (idx *Index) AllCommunitiesBFS(k int32) []*Community {
	if k < core.MinK {
		k = core.MinK
	}
	sg := idx.SG
	s := sg.NumSupernodes()
	visited := ds.NewBitset(int(s))
	var out []*Community
	for seed := int32(0); seed < s; seed++ {
		if sg.K[seed] < k || visited.Get(int(seed)) {
			continue
		}
		var members []int32
		stack := []int32{seed}
		visited.Set(int(seed))
		for len(stack) > 0 {
			sn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, sg.SupernodeEdges(sn)...)
			for _, nb := range sg.SupernodeNeighbors(sn) {
				if sg.K[nb] >= k && !visited.Get(int(nb)) {
					visited.Set(int(nb))
					stack = append(stack, nb)
				}
			}
		}
		members = appendSortedDistinct(members[:0], members, int(idx.G.NumEdges()))
		out = append(out, &Community{K: k, Edges: members, g: idx.G})
	}
	return CanonicalizeCommunities(out)
}

// CommunityCountBFS computes the global community-count profile with one
// full enumeration per level — the oracle form of CommunityCount.
func (idx *Index) CommunityCountBFS() map[int32]int {
	kmax := idx.SG.MaxK()
	out := make(map[int32]int)
	for k := int32(core.MinK); k <= kmax; k++ {
		if n := len(idx.AllCommunitiesBFS(k)); n > 0 {
			out[k] = n
		}
	}
	return out
}

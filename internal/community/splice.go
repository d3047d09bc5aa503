package community

import (
	"fmt"

	"equitruss/internal/concur"
)

// spliceInput carries the translation tables an incremental Apply computed
// while repairing the summary graph into the hierarchy splice.
type spliceInput struct {
	oldToNewEdge []int32 // old edge ID -> new edge ID, -1 for deleted
	oldToNewSN   []int32 // old supernode -> new supernode, -1 for dirty
	cleanOldSN   []int32 // new supernode (< cleanCount) -> old supernode
	cleanCount   int32   // new supernode IDs below this are carried-over old ones
	rootOf       []int32 // old hierarchy node -> root of its tree
	affectedRoot []bool  // old tree roots whose trees must be rebuilt
}

// spliceHierarchy builds the new index's merge forest by copying every tree
// of the old forest that the delta provably cannot touch and rebuilding —
// the same sweep and finish the from-scratch build runs — only over the
// supernodes of affected trees plus the freshly rebuilt supernodes.
//
// Tree granularity is the natural unit: supernodes connected by superedges
// always share a tree, and Apply marks a tree affected whenever any of its
// supernodes is dirtied or any of its supernodes gains or loses a superedge
// — so a kept tree has exactly its old member set, counts, and shape, and
// the subset sweep never needs to union across the kept/rebuilt boundary.
//
// Returns the spliced hierarchy plus the kept and rebuilt node counts.
func spliceHierarchy(oldIdx, newIdx *Index, in spliceInput) (*Hierarchy, int, int, error) {
	sNew := int(newIdx.SG.NumSupernodes())
	h := &Hierarchy{kmax: newIdx.SG.MaxK()}
	oldH := oldIdx.Hierarchy()
	oldN := int(oldH.NumNodes())

	// Copy kept nodes in old ID order — old IDs are topological (child <
	// parent) and the copy preserves relative order, so the invariant holds
	// for kept nodes; rebuilt nodes are appended afterwards in sweep order,
	// and their children are always rebuilt nodes, so it holds globally.
	nodeMap := make([]int32, oldN)
	for id := 0; id < oldN; id++ {
		if in.affectedRoot[in.rootOf[id]] {
			nodeMap[id] = -1
			continue
		}
		nodeMap[id] = int32(len(h.nodeK))
		h.nodeK = append(h.nodeK, oldH.nodeK[id])
		h.parent = append(h.parent, oldH.parent[id]) // old ID, remapped below
		h.edges = append(h.edges, oldH.edges[id])
		h.verts = append(h.verts, oldH.verts[id])
		nm := in.oldToNewEdge[oldH.nodeMin[id]]
		if nm < 0 {
			return nil, 0, 0, fmt.Errorf("community: kept hierarchy node %d lost its minimum edge", id)
		}
		h.nodeMin = append(h.nodeMin, nm)
	}
	kept := len(h.nodeK)
	for i := 0; i < kept; i++ {
		if p := h.parent[i]; p >= 0 {
			np := nodeMap[p]
			if np < 0 {
				return nil, 0, 0, fmt.Errorf("community: kept node %d has an affected parent", i)
			}
			h.parent[i] = np
		}
	}

	// Leaves for carried-over supernodes of kept trees; everything else goes
	// through the rebuild.
	h.snLeaf = make([]int32, sNew)
	isAffected := make([]bool, sNew)
	for nsn := int32(0); nsn < int32(sNew); nsn++ {
		if nsn < in.cleanCount {
			oldLeaf := oldH.snLeaf[in.cleanOldSN[nsn]]
			if !in.affectedRoot[in.rootOf[oldLeaf]] {
				h.snLeaf[nsn] = nodeMap[oldLeaf]
				continue
			}
		}
		isAffected[nsn] = true
	}

	// The repair is serial: it runs inside the update applier beside the
	// query pool, and an Exec without a context cannot fail for any reason
	// but a superedge escaping the affected set.
	if err := h.rebuild(concur.Exec{Threads: 1}, newIdx, isAffected); err != nil {
		return nil, 0, 0, err
	}
	return h, kept, len(h.nodeK) - kept, nil
}

package community

import (
	"errors"
	"fmt"
	"slices"

	"equitruss/internal/core"
	"equitruss/internal/ds"
	"equitruss/internal/dynamic"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

var (
	cIncrApplies = obs.GetCounter("community_incremental_applies",
		"incremental summary/hierarchy repairs that produced a new index")
	cIncrRegionEdges = obs.GetCounter("community_incremental_region_edges",
		"edges re-examined by incremental repairs (the repair working set)")
	cIncrDirtySN = obs.GetCounter("community_incremental_dirty_supernodes",
		"supernodes invalidated and rebuilt by incremental repairs")
	cIncrKeptNodes = obs.GetCounter("community_incremental_kept_hierarchy_nodes",
		"merge-forest nodes carried over unchanged by hierarchy splices")
)

// ErrDeltaTooLarge reports that the repair region exceeded the caller's
// budget; the caller should fall back to a from-scratch rebuild, which is
// cheaper than repairing most of the graph edge by edge.
var ErrDeltaTooLarge = errors.New("community: delta region exceeds the incremental-repair budget")

// EdgeDelta names the edges a batch of updates moved: the net delta a
// dynamic.Graph reports, keyed by graph.PackPair. Changed holds surviving
// pre-existing edges with their new trussness, Inserted/Deleted the
// membership changes, and Touched the surviving triangle partners of
// deleted edges (their trussness may be unchanged but their triangle set is
// not). The maps must be mutually disjoint.
type EdgeDelta = dynamic.Delta

// ApplyStats summarizes one incremental repair for logs and benchmarks.
type ApplyStats struct {
	DirtySupernodes    int // old supernodes invalidated by the delta
	RetainedSupernodes int // old supernodes carried over membership-identical
	RebuiltSupernodes  int // supernodes recomputed from the repair region
	RegionEdges        int // edges the repair re-examined
	KeptNodes          int // hierarchy nodes spliced through unchanged
	RebuiltNodes       int // hierarchy nodes recomputed by the subset sweep
}

// Maintainer applies EdgeDeltas to a query-ready index incrementally:
// instead of re-enumerating every triangle and re-bucketing every supernode,
// it recomputes supernode membership and superedges only inside the region
// the delta can reach and splices the repaired merge-forest trees into the
// hierarchy. On success the maintainer advances to the produced index; on
// any error it stays put, so the caller can fall back to a full rebuild and
// wrap the rebuilt index in a new Maintainer.
//
// The locality argument: a triangle's qualification as a supernode witness
// or superedge witness can only change when one of its three edges changes
// (trussness or existence). Seeding the dirty set with the old supernodes of
// every changed/deleted/touched edge plus the supernodes of the new-graph
// triangle partners of every changed/inserted edge therefore covers every
// supernode whose membership or incident superedges can differ; supernodes
// outside the dirty set keep their member sets, their trussness, and their
// mutual superedges verbatim.
type Maintainer struct {
	idx *Index
}

// NewMaintainer wraps a published index for incremental maintenance.
func NewMaintainer(idx *Index) *Maintainer { return &Maintainer{idx: idx} }

// Apply builds the successor index for one delta. maxRegionFrac bounds the
// repair region as a fraction of the new edge count (0 disables the bound);
// exceeding it returns ErrDeltaTooLarge with the maintainer unchanged.
func (mt *Maintainer) Apply(d EdgeDelta, maxRegionFrac float64) (*Index, ApplyStats, error) {
	var st ApplyStats
	oldIdx := mt.idx
	oldG, oldSG := oldIdx.G, oldIdx.SG
	n := oldG.NumVertices()
	if d.NumVertices > n {
		n = d.NumVertices
	}
	if d.Empty() && n == oldG.NumVertices() {
		return oldIdx, st, nil
	}

	// Resolve pre-existing delta keys to old edge IDs.
	oldNV := oldG.NumVertices()
	resolveOld := func(k uint64, kind string) (int32, error) {
		u, v := graph.UnpackPair(k)
		if u >= oldNV || v >= oldNV {
			return -1, fmt.Errorf("community: %s key (%d,%d) beyond the prior vertex space", kind, u, v)
		}
		eid := oldG.EdgeID(u, v)
		if eid < 0 {
			return -1, fmt.Errorf("community: %s key (%d,%d) not in the prior graph", kind, u, v)
		}
		return eid, nil
	}
	deletedOld := make([]int32, 0, len(d.Deleted))
	for k := range d.Deleted {
		eid, err := resolveOld(k, "deleted")
		if err != nil {
			return nil, st, err
		}
		deletedOld = append(deletedOld, eid)
	}
	slices.Sort(deletedOld)
	type changedEdge struct {
		oldEID int32
		tau    int32
	}
	changedOld := make([]changedEdge, 0, len(d.Changed))
	for k, t := range d.Changed {
		eid, err := resolveOld(k, "changed")
		if err != nil {
			return nil, st, err
		}
		changedOld = append(changedOld, changedEdge{eid, t})
	}
	touchedOld := make([]int32, 0, len(d.Touched))
	for k := range d.Touched {
		eid, err := resolveOld(k, "touched")
		if err != nil {
			return nil, st, err
		}
		touchedOld = append(touchedOld, eid)
	}
	insKeys := make([]uint64, 0, len(d.Inserted))
	for k := range d.Inserted {
		if u, v := graph.UnpackPair(k); u < oldNV && v < oldNV && oldG.EdgeID(u, v) >= 0 {
			return nil, st, fmt.Errorf("community: inserted key (%d,%d) already in the prior graph", u, v)
		}
		insKeys = append(insKeys, k)
	}
	slices.Sort(insKeys)

	// Merge the (sorted) old edge array with the sorted inserts, dropping
	// deletes: one O(m) pass yields the new canonical edge list, both ID
	// translations, and the new tau array — no map iteration, and the
	// result is canonical and sorted, so FromEdgeList sorts nothing.
	oldEdges := oldG.Edges()
	mOld := len(oldEdges)
	newEdges := make([]graph.Edge, 0, mOld+len(insKeys)-len(deletedOld))
	oldToNew := make([]int32, mOld)
	tauNew := make([]int32, 0, cap(newEdges))
	insNew := make([]int32, len(insKeys))
	di := 0 // cursor into deletedOld
	j := 0  // cursor into insKeys
	for i := 0; i < mOld; i++ {
		e := oldEdges[i]
		ek := graph.PackPair(e.U, e.V)
		for j < len(insKeys) && insKeys[j] < ek {
			u, v := graph.UnpackPair(insKeys[j])
			insNew[j] = int32(len(newEdges))
			newEdges = append(newEdges, graph.Edge{U: u, V: v})
			tauNew = append(tauNew, d.Inserted[insKeys[j]])
			j++
		}
		if di < len(deletedOld) && deletedOld[di] == int32(i) {
			oldToNew[i] = -1
			di++
			continue
		}
		oldToNew[i] = int32(len(newEdges))
		newEdges = append(newEdges, e)
		tauNew = append(tauNew, oldSG.Tau[i])
	}
	for ; j < len(insKeys); j++ {
		u, v := graph.UnpackPair(insKeys[j])
		insNew[j] = int32(len(newEdges))
		newEdges = append(newEdges, graph.Edge{U: u, V: v})
		tauNew = append(tauNew, d.Inserted[insKeys[j]])
	}
	if di != len(deletedOld) {
		return nil, st, errors.New("community: deleted edge IDs out of range during merge")
	}
	mNew := len(newEdges)
	newToOld := make([]int32, mNew)
	for i := range newToOld {
		newToOld[i] = -1
	}
	changedNew := make([]int32, 0, len(changedOld))
	for i, ne := range oldToNew {
		if ne >= 0 {
			newToOld[ne] = int32(i)
		}
	}
	for _, ce := range changedOld {
		ne := oldToNew[ce.oldEID]
		if ne < 0 {
			return nil, st, errors.New("community: changed edge also reported deleted")
		}
		tauNew[ne] = ce.tau
		changedNew = append(changedNew, ne)
	}

	gNew, err := graph.FromEdgeList(newEdges, n)
	if err != nil {
		return nil, st, err
	}
	if gNew.NumEdges() != int64(mNew) {
		return nil, st, fmt.Errorf("community: merged edge list shrank from %d to %d (duplicate insert?)", mNew, gNew.NumEdges())
	}

	// Dirty old supernodes: the old homes of every changed/deleted/touched
	// edge, plus the old homes of the new-graph triangle partners of every
	// changed/inserted edge (those supernodes may gain members or lose or
	// gain superedge witnesses).
	sOld := int(oldSG.NumSupernodes())
	dirty := make([]bool, sOld)
	var dirtyList []int32
	markDirty := func(sn int32) {
		if sn != core.NoSupernode && !dirty[sn] {
			dirty[sn] = true
			dirtyList = append(dirtyList, sn)
		}
	}
	for _, eid := range deletedOld {
		markDirty(oldSG.EdgeToSN[eid])
	}
	for _, ce := range changedOld {
		markDirty(oldSG.EdgeToSN[ce.oldEID])
	}
	for _, eid := range touchedOld {
		markDirty(oldSG.EdgeToSN[eid])
	}
	markPartners := func(ne int32) {
		gNew.ForEachTriangleOf(ne, func(w, e1, e2 int32) bool {
			if o := newToOld[e1]; o >= 0 {
				markDirty(oldSG.EdgeToSN[o])
			}
			if o := newToOld[e2]; o >= 0 {
				markDirty(oldSG.EdgeToSN[o])
			}
			return true
		})
	}
	for _, ne := range changedNew {
		markPartners(ne)
	}
	for _, ne := range insNew {
		markPartners(ne)
	}
	st.DirtySupernodes = len(dirtyList)

	// The repair region: surviving members of dirty supernodes plus every
	// changed/inserted edge that (still) has trussness >= MinK.
	inRegion := make([]int32, mNew)
	for i := range inRegion {
		inRegion[i] = -1
	}
	var region []int32
	addRegion := func(ne int32) {
		if ne >= 0 && tauNew[ne] >= core.MinK && inRegion[ne] < 0 {
			inRegion[ne] = int32(len(region))
			region = append(region, ne)
		}
	}
	for _, sn := range dirtyList {
		for _, e := range oldSG.SupernodeEdges(sn) {
			addRegion(oldToNew[e])
		}
	}
	for _, ne := range changedNew {
		addRegion(ne)
	}
	for _, ne := range insNew {
		addRegion(ne)
	}
	st.RegionEdges = len(region)
	if maxRegionFrac > 0 && float64(len(region)) > maxRegionFrac*float64(mNew) {
		return nil, st, fmt.Errorf("%w: region %d of %d edges", ErrDeltaTooLarge, len(region), mNew)
	}

	// Recompute the supernode partition inside the region: union equal-τ
	// edges sharing a triangle whose third edge has τ >= their level —
	// exactly the SpNode connectivity rule. A qualifying equal-τ partner of
	// a region edge is provably in the region (otherwise its supernode
	// would have been dirtied above); a miss means the delta was
	// inconsistent with the index, which aborts to the full-rebuild path.
	uf := ds.NewUnionFind(len(region))
	var invariantErr error
	for li, ne := range region {
		k := tauNew[ne]
		gNew.ForEachTriangleOf(ne, func(w, e1, e2 int32) bool {
			k1, k2 := tauNew[e1], tauNew[e2]
			if k1 < k || k2 < k {
				return true
			}
			if k1 == k {
				lp := inRegion[e1]
				if lp < 0 {
					invariantErr = fmt.Errorf("community: region-closure miss at edge %d (partner %d)", ne, e1)
					return false
				}
				uf.Union(int32(li), lp)
			}
			if k2 == k {
				lp := inRegion[e2]
				if lp < 0 {
					invariantErr = fmt.Errorf("community: region-closure miss at edge %d (partner %d)", ne, e2)
					return false
				}
				uf.Union(int32(li), lp)
			}
			return true
		})
		if invariantErr != nil {
			return nil, st, invariantErr
		}
	}

	// Dense new supernode IDs: clean old supernodes first (in old order,
	// preserving a stable translation), then the region components.
	oldToNewSN := make([]int32, sOld)
	cleanOldSN := make([]int32, 0, sOld-len(dirtyList))
	kNew := make([]int32, 0, sOld)
	for sn := 0; sn < sOld; sn++ {
		if dirty[sn] {
			oldToNewSN[sn] = -1
			continue
		}
		oldToNewSN[sn] = int32(len(kNew))
		cleanOldSN = append(cleanOldSN, int32(sn))
		kNew = append(kNew, oldSG.K[sn])
	}
	cleanCount := int32(len(kNew))
	st.RetainedSupernodes = int(cleanCount)
	compAt := make([]int32, len(region)) // root local index -> new SN id
	for i := range compAt {
		compAt[i] = -1
	}
	compID := make([]int32, len(region))
	for li := range region {
		r := uf.Find(int32(li))
		if compAt[r] < 0 {
			compAt[r] = int32(len(kNew))
			kNew = append(kNew, tauNew[region[li]])
		}
		compID[li] = compAt[r]
	}
	sNew := int32(len(kNew))
	st.RebuiltSupernodes = int(sNew - cleanCount)

	// Edge → supernode.
	edgeToSN := make([]int32, mNew)
	for i := range edgeToSN {
		edgeToSN[i] = core.NoSupernode
	}
	for _, oldSN := range cleanOldSN {
		nsn := oldToNewSN[oldSN]
		for _, e := range oldSG.SupernodeEdges(oldSN) {
			ne := oldToNew[e]
			if ne < 0 {
				return nil, st, fmt.Errorf("community: clean supernode %d lost member edge %d", oldSN, e)
			}
			edgeToSN[ne] = nsn
		}
	}
	for li, ne := range region {
		edgeToSN[ne] = compID[li]
	}

	// Superedges. Clean–clean pairs survive verbatim (every witness
	// triangle of such a pair is intact — any change to one would have
	// dirtied both endpoints); pairs incident to a dirty supernode are
	// dropped and the region re-emits its incident pairs by triangle
	// enumeration under the exact SpEdge rule. Trees of clean endpoints
	// that lose or gain a pair are marked for the hierarchy rebuild.
	oldH := oldIdx.Hierarchy()
	oldN := int(oldH.NumNodes())
	rootOf := make([]int32, oldN)
	for id := oldN - 1; id >= 0; id-- {
		if p := oldH.parent[id]; p < 0 {
			rootOf[id] = int32(id)
		} else {
			rootOf[id] = rootOf[p]
		}
	}
	affectedRoot := make([]bool, oldN)
	markTree := func(oldSN int32) {
		affectedRoot[rootOf[oldH.snLeaf[oldSN]]] = true
	}
	for _, sn := range dirtyList {
		markTree(sn)
	}
	retained := make([]uint64, 0, oldSG.NumSuperedges())
	for a := int32(0); a < int32(sOld); a++ {
		for _, b := range oldSG.SupernodeNeighbors(a) {
			if b <= a {
				continue
			}
			switch {
			case !dirty[a] && !dirty[b]:
				retained = append(retained, graph.PackPair(oldToNewSN[a], oldToNewSN[b]))
			case !dirty[a]:
				markTree(a) // loses the (a,b) superedge
			case !dirty[b]:
				markTree(b)
			}
		}
	}
	retained = core.SortDedupe(retained)
	sink := core.NewPairSink()
	for _, ne := range region {
		gNew.ForEachTriangleOf(ne, func(w, e1, e2 int32) bool {
			trio := [3]int32{ne, e1, e2}
			taus := [3]int32{tauNew[ne], tauNew[e1], tauNew[e2]}
			lowest := taus[0]
			if taus[1] < lowest {
				lowest = taus[1]
			}
			if taus[2] < lowest {
				lowest = taus[2]
			}
			for x := 0; x < 3; x++ {
				if taus[x] <= lowest {
					continue
				}
				for y := 0; y < 3; y++ {
					if taus[y] == lowest {
						a, b := edgeToSN[trio[x]], edgeToSN[trio[y]]
						if a < 0 || b < 0 {
							invariantErr = fmt.Errorf("community: triangle edge with τ>=3 outside partition (%d,%d)", trio[x], trio[y])
							return false
						}
						sink.Add(graph.PackPair(a, b))
					}
				}
			}
			return true
		})
		if invariantErr != nil {
			return nil, st, invariantErr
		}
	}
	recomputed := core.SortDedupe(sink.Pairs)
	for _, p := range recomputed {
		if _, found := slices.BinarySearch(retained, p); found {
			continue
		}
		a, b := graph.UnpackPair(p)
		if a < cleanCount {
			markTree(cleanOldSN[a]) // gains a superedge it did not have
		}
		if b < cleanCount {
			markTree(cleanOldSN[b])
		}
	}
	pairs := core.SortDedupe(append(retained, recomputed...))
	newIdx := NewIndex(gNew, core.Assemble(tauNew, edgeToSN, kNew, pairs))

	h, kept, rebuilt, err := spliceHierarchy(oldIdx, newIdx, spliceInput{
		oldToNewEdge: oldToNew,
		oldToNewSN:   oldToNewSN,
		cleanOldSN:   cleanOldSN,
		cleanCount:   cleanCount,
		rootOf:       rootOf,
		affectedRoot: affectedRoot,
	})
	if err != nil {
		return nil, st, err
	}
	st.KeptNodes, st.RebuiltNodes = kept, rebuilt
	newIdx.hier.Store(h)

	cIncrApplies.Inc()
	cIncrRegionEdges.Add(int64(st.RegionEdges))
	cIncrDirtySN.Add(int64(st.DirtySupernodes))
	cIncrKeptNodes.Add(int64(kept))
	mt.idx = newIdx
	return newIdx, st, nil
}

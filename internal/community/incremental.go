package community

import (
	"context"
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

// maxRepairFrac is Advance's repair budget, as a fraction of the edge count:
// past it a from-scratch rebuild is the cheaper publish.
const maxRepairFrac = 0.2

// EdgeDelta names the edges a batch of updates moved: the net delta a
// dynamic.Graph reports, keyed by graph.PackPair. Changed holds surviving
// pre-existing edges with their new trussness, Inserted/Deleted the
// membership changes, and Touched the surviving triangle partners of
// deleted edges (their trussness may be unchanged but their triangle set is
// not). The maps must be mutually disjoint. G, Tau and OldToNew are the
// window's successor CSR, which the repaired index adopts; OldToNew must
// cover the maintained index's edges.
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
// any error it stays put, so Advance can fall back to a full rebuild.
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

// Step names how Advance produced its index.
type Step string

const (
	StepNone    Step = "none"    // an empty delta: the maintained index itself
	StepRepair  Step = "repair"  // Apply's in-place repair
	StepRebuild Step = "rebuild" // a summary build over the delta's graph and τ
)

// Advanced reports one Advance.
type Advanced struct {
	Step     Step
	Stats    ApplyStats   // the repair's, also when it declined
	Declined error        // why the repair gave way to a rebuild, even one that failed
	Timings  core.Timings // the rebuild's kernel times
}

// Advance is the one publish rule of the live applier and of recovery: it
// produces the successor of the maintained index for d and repoints the
// maintainer to it. It repairs in place within maxRepairFrac of the edges;
// otherwise, or when the repair fails, it builds the summary graph with
// variant v from d's graph and maintained τ, with no re-peeling. A successor
// over the maintained index's own graph aliases its τ, so it takes over its
// Backing: after a restart, the snapshot mapping must outlive the snapshot's
// epoch. On error the maintainer stays put.
func (mt *Maintainer) Advance(ctx context.Context, d EdgeDelta, v core.Variant, threads int) (*Index, Advanced, error) {
	old := mt.idx
	idx, st, err := mt.Apply(d, maxRepairFrac)
	adv := Advanced{Step: StepRepair, Stats: st}
	switch {
	case err != nil:
		adv.Step, adv.Declined = StepRebuild, err
		sg, tm, berr := core.BuildCtx(ctx, d.G, d.Tau, v, threads, nil)
		if berr != nil {
			return nil, adv, berr
		}
		adv.Timings = tm
		idx = NewIndex(d.G, sg)
		mt.idx = idx
	case idx == old:
		adv.Step = StepNone
	}
	if idx.G == old.G && idx.SG.Backing == nil {
		idx.SG.Backing = old.SG.Backing
	}
	return idx, adv, nil
}

// Apply builds the successor index for one delta, on the delta's successor
// graph and τ (which the new index adopts). maxRegionFrac bounds the repair
// region as a fraction of the new edge count (0 disables the bound);
// exceeding it returns ErrDeltaTooLarge with the maintainer unchanged.
func (mt *Maintainer) Apply(d EdgeDelta, maxRegionFrac float64) (*Index, ApplyStats, error) {
	var st ApplyStats
	oldIdx := mt.idx
	oldG, oldSG := oldIdx.G, oldIdx.SG
	if int64(len(d.OldToNew)) != oldG.NumEdges() {
		return nil, st, fmt.Errorf("community: delta maps %d prior edges, the index has %d", len(d.OldToNew), oldG.NumEdges())
	}
	if d.Empty() && d.G == oldG {
		return oldIdx, st, nil
	}
	gNew, tauNew, oldToNew := d.G, d.Tau, d.OldToNew
	mNew := int(gNew.NumEdges())

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
	newToOld := make([]int32, mNew)
	for i := range newToOld {
		newToOld[i] = -1
	}
	for i, ne := range oldToNew {
		if ne < 0 {
			markDirty(oldSG.EdgeToSN[i])
		} else {
			newToOld[ne] = int32(i)
		}
	}
	newID := func(k uint64) int32 { return gNew.EdgeID(graph.UnpackPair(k)) }
	changedNew := make([]int32, 0, len(d.Changed))
	for k := range d.Changed {
		ne := newID(k)
		changedNew = append(changedNew, ne)
		markDirty(oldSG.EdgeToSN[newToOld[ne]])
	}
	insNew := make([]int32, 0, len(d.Inserted))
	for k := range d.Inserted {
		insNew = append(insNew, newID(k))
	}
	for k := range d.Touched {
		markDirty(oldSG.EdgeToSN[oldG.EdgeID(graph.UnpackPair(k))])
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

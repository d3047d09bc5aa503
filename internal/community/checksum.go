package community

import (
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/core"
	"equitruss/internal/graph"
)

// Checksums fingerprints the three layers of a query-ready index. The
// values are canonical: they depend only on the logical state (edge set,
// trussness, supernode partition, superedges, hierarchy), never on the
// dense IDs a construction variant, thread count or update assigned. Two
// indexes over the same state (one recovered from a snapshot + WAL replay,
// one built from scratch) therefore agree bit for bit, which is the test
// behind the crash-recovery differential.
//
// Elements are keyed by endpoints, never by ID: an edge by its
// graph.PackPair, a supernode by the pair of its smallest member edge.
// Each element is hashed on its own; a layer is its element count mixed in
// plus the sum of its element hashes mod 2^64. The sum is order-free, so
// any number of threads can split the fold, and renumbering edge IDs
// changes no element's hash.
type Checksums struct {
	// Tau covers every edge's trussness.
	Tau uint64 `json:"tau"`
	// Summary covers every edge's supernode name (τ = 2 edges marked),
	// every supernode's trussness, and the superedges over those names.
	Summary uint64 `json:"summary"`
	// Hierarchy covers the merge forest: every node's level, canonical
	// name (its smallest member edge's pair), member-edge and vertex
	// counts, and its parent's level and name.
	Hierarchy uint64 `json:"hierarchy"`
}

// Tags tell apart the summary layer's kinds of element (the other layers
// have one kind each and use tag 0) in bits 31 and 63, which no PackPair
// key sets. noName, which is no PackPair key, names the supernode of a
// τ = 2 edge and the parent of a root.
const (
	tagMember    uint64 = 1 << 31
	tagK         uint64 = 1 << 63
	tagSuperedge uint64 = 1<<63 | 1<<31
	noName              = ^uint64(0)
)

// mix is SplitMix64's output function, a bijection on 64-bit words.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// hash hashes one element: its tag and key, then its values in order.
func hash(tag, key uint64, vals ...uint64) uint64 {
	h := mix(key ^ tag)
	for _, v := range vals {
		h = mix(h + v)
	}
	return h
}

// sum2 runs body over a split of [0, n) and adds up the two sums it returns
// per range. Addition commutes, so neither the split nor the schedule can
// change the result. An Exec without a context cannot fail.
func sum2(x concur.Exec, n int, body func(lo, hi int) (a, b uint64)) (uint64, uint64) {
	var a, b atomic.Uint64
	_ = x.ForRangeDynamic("", n, 0, func(_, lo, hi int) {
		da, db := body(lo, hi)
		a.Add(da)
		b.Add(db)
	})
	return a.Load(), b.Load()
}

// Checksums computes the canonical fingerprints on all usable CPUs. The
// hierarchy is built (once, lazily) if it does not exist yet.
func (idx *Index) Checksums() Checksums { return idx.checksums(concur.MaxThreads()) }

func (idx *Index) checksums(threads int) Checksums {
	g, sg, hr := idx.G, idx.SG, idx.Hierarchy()
	x := concur.Exec{Threads: threads}
	m, s, n := len(sg.Tau), int(sg.NumSupernodes()), int(hr.NumNodes())
	key := func(e int32) uint64 {
		if e < 0 || int(e) >= m {
			return noName
		}
		ed := g.Edge(e)
		return graph.PackPair(ed.U, ed.V)
	}
	// Supernodes: name each by its smallest member edge, fold its K.
	minKey := make([]uint64, s)
	kSum, _ := sum2(x, s, func(lo, hi int) (sum, _ uint64) {
		for sn := lo; sn < hi; sn++ {
			rep := int32(-1)
			for _, e := range sg.SupernodeEdges(int32(sn)) {
				if rep < 0 || e < rep {
					rep = e
				}
			}
			minKey[sn] = key(rep)
			sum += hash(tagK, minKey[sn], uint64(sg.K[sn]))
		}
		return sum, 0
	})
	// Edges: τ and membership under canonical names.
	tauSum, memSum := sum2(x, m, func(lo, hi int) (ts, ms uint64) {
		for e := lo; e < hi; e++ {
			k, name := key(int32(e)), noName
			if sn := sg.EdgeToSN[e]; sn != core.NoSupernode {
				name = minKey[sn]
			}
			ts += hash(0, k, uint64(sg.Tau[e]))
			ms += hash(tagMember, k, name)
		}
		return ts, ms
	})
	// Superedges: each unordered pair of names once.
	seSum, _ := sum2(x, s, func(lo, hi int) (sum, _ uint64) {
		for sn := lo; sn < hi; sn++ {
			for _, nb := range sg.SupernodeNeighbors(int32(sn)) {
				if int32(sn) < nb {
					a, b := minKey[sn], minKey[nb]
					sum += hash(tagSuperedge, min(a, b), max(a, b))
				}
			}
		}
		return sum, 0
	})
	// Hierarchy nodes: (level, name), counts, parent's (level, name).
	hSum, _ := sum2(x, n, func(lo, hi int) (sum, _ uint64) {
		for id := lo; id < hi; id++ {
			pk, pname := uint64(0), noName // a root; levels start at MinK
			if p := hr.parent[id]; p >= 0 {
				pk, pname = uint64(hr.nodeK[p]), key(hr.nodeMin[p])
			}
			sum += hash(0, key(hr.nodeMin[id]), uint64(hr.nodeK[id]),
				uint64(hr.edges[id]), uint64(hr.verts[id]), pk, pname)
		}
		return sum, 0
	})
	return Checksums{
		Tau:       mix(uint64(m)) + tauSum,
		Summary:   mix(uint64(s)) + kSum + memSum + seSum,
		Hierarchy: mix(uint64(n)) + hSum,
	}
}

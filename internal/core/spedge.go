package core

import (
	"context"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// spEdgeCancelStride is how many edges a SpEdge worker scans between ctx
// polls inside its per-thread block.
const spEdgeCancelStride = 2048

// spEdgeFlat is Algorithm 3 over the flat τ/Π arrays (C-Optimal and
// Afforest variants): every edge scans its triangles, and whenever it is
// strictly above the triangle's minimum trussness it emits a superedge from
// its supernode down to the minimum edge's supernode. Each thread appends
// to its own subset (ln. 1, 10, 12), avoiding races by construction.
// Workers poll ctx every spEdgeCancelStride edges; a canceled call returns
// ctx.Err() and no subsets.
func spEdgeFlat(ctx context.Context, g *graph.Graph, tau, pi []int32, threads int, tr *obs.Trace) ([][]uint64, error) {
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	m := int(g.NumEdges())
	spEdges := make([][]uint64, threads)
	err := x.ForThreads("SpEdge", threads, func(tid int) {
		lo := tid * m / threads
		hi := (tid + 1) * m / threads
		var local []uint64
		for i := lo; i < hi; i++ {
			if (i-lo)%spEdgeCancelStride == 0 && concur.Canceled(ctx) {
				return
			}
			e := int32(i)
			k := tau[e]
			if k < MinK {
				continue
			}
			g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
				k1, k2 := tau[e1], tau[e2]
				lowest := min(k, k1, k2)
				if k > lowest {
					if lowest == k1 {
						local = append(local, graph.PackPair(pi[e1], pi[e]))
					}
					if lowest == k2 {
						local = append(local, graph.PackPair(pi[e2], pi[e]))
					}
				}
				return true
			})
		}
		spEdges[tid] = local
		cSpEdgeEmitted.Add(int64(len(local)))
	})
	if err != nil {
		return nil, err
	}
	return spEdges, nil
}

// spEdgeBaseline is Algorithm 3 with the Baseline variant's dictionary
// lookups for trussness and edge identity (the same indirection its SpNode
// pays). Cancellation mirrors spEdgeFlat.
func spEdgeBaseline(ctx context.Context, g *graph.Graph, tau, pi []int32, dict edgeDict, threads int, tr *obs.Trace) ([][]uint64, error) {
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	m := int(g.NumEdges())
	edges := g.Edges()
	spEdges := make([][]uint64, threads)
	err := x.ForThreads("SpEdge", threads, func(tid int) {
		lo := tid * m / threads
		hi := (tid + 1) * m / threads
		var local []uint64
		for i := lo; i < hi; i++ {
			if (i-lo)%spEdgeCancelStride == 0 && concur.Canceled(ctx) {
				return
			}
			e := int32(i)
			k := tau[e]
			if k < MinK {
				continue
			}
			u, v := edges[e].U, edges[e].V
			nu, nv := g.Neighbors(u), g.Neighbors(v)
			a, b := 0, 0
			for a < len(nu) && b < len(nv) {
				switch {
				case nu[a] < nv[b]:
					a++
				case nu[a] > nv[b]:
					b++
				default:
					w := nu[a]
					a++
					b++
					e1, k1 := unpackInfo(dict[graph.PackPair(u, w)])
					e2, k2 := unpackInfo(dict[graph.PackPair(v, w)])
					lowest := min(k, k1, k2)
					if k > lowest {
						if lowest == k1 {
							local = append(local, graph.PackPair(pi[e1], pi[e]))
						}
						if lowest == k2 {
							local = append(local, graph.PackPair(pi[e2], pi[e]))
						}
					}
				}
			}
		}
		spEdges[tid] = local
		cSpEdgeEmitted.Add(int64(len(local)))
	})
	if err != nil {
		return nil, err
	}
	return spEdges, nil
}

// smGraphMerge is Algorithm 4: thread-local superedge subsets are hash-
// partitioned to destination threads, each destination sorts and
// deduplicates its partition, and the partitions are concatenated into the
// final superedge list via a prefix-summed parallel copy. Cancellation is
// checked at each of the three phase barriers.
func smGraphMerge(ctx context.Context, spEdges [][]uint64, threads int, tr *obs.Trace) ([]uint64, error) {
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	nsrc := len(spEdges)
	// ln. 6–11: each source thread buckets its superedges by destination.
	partitioned := make([][][]uint64, nsrc)
	if err := x.ForThreads("SmGraph", nsrc, func(src int) {
		buckets := make([][]uint64, threads)
		for _, p := range spEdges[src] {
			d := int((p * 0x9E3779B97F4A7C15 >> 33) % uint64(threads))
			buckets[d] = append(buckets[d], p)
		}
		partitioned[src] = buckets
	}); err != nil {
		return nil, err
	}
	// ln. 13–16: each destination combines, sorts, removes duplicates.
	combined := make([][]uint64, threads)
	var deduped int64
	if err := x.ForThreads("SmGraph", threads, func(dst int) {
		var all []uint64
		for src := 0; src < nsrc; src++ {
			all = append(all, partitioned[src][dst]...)
		}
		n := len(all)
		out := SortDedupe(all)
		if dropped := n - len(out); dropped > 0 {
			atomic.AddInt64(&deduped, int64(dropped))
		}
		combined[dst] = out
	}); err != nil {
		return nil, err
	}
	// ln. 17–19: size the final buffer by reduction and merge in parallel.
	offsets := make([]int64, threads)
	var total int64
	for d := 0; d < threads; d++ {
		offsets[d] = total
		total += int64(len(combined[d]))
	}
	final := make([]uint64, total)
	if err := x.ForThreads("SmGraph", threads, func(dst int) {
		copy(final[offsets[dst]:], combined[dst])
	}); err != nil {
		return nil, err
	}
	cSmGraphDeduped.Add(deduped)
	cSmGraphFinal.Add(total)
	return final, nil
}
